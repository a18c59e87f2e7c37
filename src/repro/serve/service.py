"""Batch-serving entry point: persistent models + shared batch caches.

This is the subsystem the fast-path layer (PR 1) and the segment-plan
cache (PR 2) were built for: a long-lived process that answers

* **prediction requests** — logits for a list of graphs under a given
  fine-tune strategy spec, served from a persistent
  :class:`~repro.core.supernet.DerivedModel` (no per-request model
  construction) over pre-collated, plan-cached batches (no per-request
  collation); and
* **many-spec scoring** — ``score_specs`` fans a list of candidate specs
  out over one cached batch set, running each through the searched
  supernet's one-hot fast path (``evaluate_spec``-style: one
  derived-model-shaped forward per batch, not one per candidate
  operator).  This is the primitive behind candidate ranking, ensembles
  over searched strategies, and A/B scoring of specs on live traffic.

Single-graph requests go through a
:class:`~repro.serve.router.BatchingRouter` built over the service
(``BatchingRouter(service, ...)``), which assembles them into server-side
micro-batches and runs each through :meth:`InferenceService.predict`.

Every forward runs under :class:`repro.nn.inference` — grad off, Dropout
and normalization in eval behaviour — without writing any model's
``training`` flag, and produces logits bit-identical to a cold forward
(fresh model + fresh uncached loader) — see ``tests/serve/test_service.py``.
Responses are not memoized: each request runs the forward on the model's
current weights, so a mutated model is served as it now is.

Thread safety and lock order
----------------------------
The whole serve stack may be shared across threads (that is what
:class:`~repro.serve.server.InferenceServer`'s worker pool does).  Every
lock is coarse and the acquisition order is fixed — to stay deadlock-free,
never acquire a lock *earlier* in this list while holding a later one.

This section is generated from the machine-readable table in
:data:`repro.devtools.locks.LOCK_HIERARCHY` — the single source of
truth, consumed by the static lock-order rule (``python -m repro lint``,
REP001), the REP006 lock census, and the runtime
:class:`~repro.devtools.runtime.LockOrderGuard`.  A tier-1 test keeps
this prose and the table in sync; edit the table first.

1. ``InferenceServer._lock`` (rank 10) — server lifecycle flags, worker
   bookkeeping, error ring;
2. ``BatchingRouter._lock`` (rank 20) — buckets, seq counter, flush
   counters, and (through two conditions over it) the server's job
   queue and idle workers; the flush path calls into the service with
   **no router lock held**;
3. ``InferenceService._lock`` (rank 30) — forward-sweep counter — never
   held across a forward;
4. leaf locks (nothing serve-layer is acquired while one is held):
   ``ModelRegistry._lock`` (rank 50), ``BatchCacheRegistry._lock``
   (rank 51), ``DataLoader._cache_lock`` (rank 52), ``Batch._plan_lock``
   (rank 53), ``graph.datasets._dataset_cache_lock`` (rank 54),
   ``ServingProtocol._lock`` (rank 56) and
   ``nn.compiled.build._build_lock`` (rank 58).

Forwards under :class:`repro.nn.inference` mutate nothing (no autograd
state, no BatchNorm buffer updates, no mode flag), and the inference,
grad and policy flags are context-local (:mod:`repro.nn.tensor` /
:mod:`repro.nn.policy`), so threads run one shared model concurrently
with no per-model lock.

Execution policy (the inference memory plane)
---------------------------------------------
A service built with ``policy="float32"`` runs every compute — batch
collation, warming, forwards — inside a
:func:`~repro.nn.policy.use_dtype` scope: batches are materialized once
in float32, the fresh model registry casts frozen weights once at
registration, an attached supernet is cast as a private copy at attach
time (the caller's stays float64), and segment kernels allocate their
outputs in float32.  The default ``policy=None`` keeps the historical
bit-identical float64 behavior.
"""

from __future__ import annotations

import contextlib
import copy
import threading
from dataclasses import dataclass

import numpy as np

from ..graph.loader import eval_logits
from ..metrics import multitask_score_or_fallback
from ..nn.compiled import compiled_status
from ..nn.policy import cast_module, use_dtype
from .cache import BatchCacheRegistry
from .registry import ModelRegistry

__all__ = ["InferenceService", "SpecScore"]


@dataclass
class SpecScore:
    """One entry of a :meth:`InferenceService.score_specs` fan-out."""

    spec: object
    score: float
    logits: np.ndarray | None = None


class InferenceService:
    """Serve predictions and spec scores from persistent state.

    Parameters
    ----------
    encoder_factory:
        Zero-argument callable returning a fresh (pre-trained) encoder;
        used whenever the service must build a derived model.
    num_tasks:
        Downstream prediction width.
    supernet:
        Optional searched :class:`~repro.core.supernet.S2PGNNSupernet`.
        When attached, newly built models warm-start from its shared
        weights and :meth:`score_specs` scores candidates through its
        one-hot fast path without building a model per spec.
    models / batch_cache:
        Existing registries to share (e.g. the
        :class:`~repro.serve.cache.BatchCacheRegistry` a
        :class:`~repro.core.api.S2PGNNFineTuner` already populated during
        search + fine-tuning); fresh ones are created when omitted.
    batch_size:
        Default serving batch size (overridable per call).
    policy:
        Optional serving dtype string (``"float32"`` or ``"float64"``).
        Every compute of this service runs inside its
        :func:`~repro.nn.policy.use_dtype` scope; a *fresh* model
        registry inherits the policy dtype (weights cast once at
        registration), and an attached supernet is cast as a private
        copy at attach time.  A shared ``models`` registry is left as
        configured — align its ``dtype`` with the policy yourself when
        sharing.  Default None: float64, bit-identical to the
        pre-policy service.
    """

    def __init__(self, encoder_factory, num_tasks: int, supernet=None,
                 models: ModelRegistry | None = None,
                 batch_cache: BatchCacheRegistry | None = None,
                 batch_size: int = 64, seed: int = 0,
                 policy: str | None = None):
        self.policy = use_dtype(policy) if policy is not None else None
        # The dtype attached weights are cast to (None: kept as given).
        self._cast_dtype = policy if policy != "float64" else None
        self.attach_supernet(supernet)
        # Explicit None checks: registries define __len__, so an *empty*
        # registry passed in for sharing is falsy but must still be used.
        if models is None:
            models = ModelRegistry(encoder_factory, num_tasks, seed=seed,
                                   dtype=self._cast_dtype)
        self.models = models
        self.batch_cache = batch_cache if batch_cache is not None else BatchCacheRegistry()
        self.batch_size = batch_size
        self._sweeps = 0
        # Service lock (level 4 in the documented order): the sweep
        # counter.  Never held across a forward.
        self._lock = threading.RLock()

    @classmethod
    def from_tuner(cls, tuner, batch_size: int = 64) -> "InferenceService":
        """Wrap a fitted :class:`~repro.core.api.S2PGNNFineTuner`.

        Shares the tuner's batch cache (splits collated during search and
        fine-tuning are served without re-collation), attaches the
        searched supernet when present, and registers the fine-tuned model
        under its spec so :meth:`predict` on ``tuner.best_spec_`` serves
        the *fitted* weights.
        """
        if tuner.model_ is None or tuner.best_spec_ is None:
            raise RuntimeError("tuner is not fitted: call fit() first")
        supernet = (tuner.search_result_.supernet
                    if tuner.search_result_ is not None else None)
        service = cls(tuner.encoder_factory, tuner.model_.num_tasks,
                      supernet=supernet, batch_cache=tuner.batch_cache,
                      batch_size=batch_size, seed=tuner.seed)
        service.models.add(tuner.best_spec_, tuner.model_)
        return service

    # ------------------------------------------------------------------
    def attach_supernet(self, supernet) -> "InferenceService":
        """Attach (or replace) the searched supernet used for warm starts
        and one-hot spec scoring; under a float32 policy, as a private cast
        copy (the caller's supernet, e.g. a searcher's, is never touched)."""
        if supernet is not None and self._cast_dtype is not None:
            supernet = cast_module(copy.deepcopy(supernet), self._cast_dtype)
        self.supernet = supernet
        return self

    def _policy_scope(self):
        """The service's execution-policy context (a no-op without one).

        Everything that collates batches, keys the batch cache, or runs a
        forward must happen inside this scope so the whole request sees
        one coherent dtype.
        """
        if self.policy is None:
            return contextlib.nullcontext()
        return self.policy

    def model_for(self, spec):
        """The persistent derived model serving ``spec`` (built on miss,
        warm-started from the attached supernet when available)."""
        return self.models.get(spec, supernet=self.supernet)

    def warm(self, graphs, batch_size: int | None = None) -> None:
        """Pre-collate ``graphs`` and build their segment plans (under the
        service's execution policy, so warmed batches are serving-ready)."""
        with self._policy_scope():
            self.batch_cache.warm(graphs, batch_size or self.batch_size)

    # ------------------------------------------------------------------
    def _sweep(self, graphs, batch_size, forward, num_tasks: int) -> np.ndarray:
        """One counted forward sweep over ``graphs`` under the policy."""
        with self._lock:
            self._sweeps += 1
        with self._policy_scope():
            return eval_logits(self.batch_cache.loader(graphs, batch_size),
                               forward, num_tasks)

    def predict(self, graphs, spec, batch_size: int | None = None) -> np.ndarray:
        """Logits for ``graphs`` under ``spec`` from the persistent model,
        whose train/eval mode is never touched."""
        return self._sweep(graphs, batch_size or self.batch_size,
                           self.model_for(spec), self.models.num_tasks)

    def predict_spec_onehot(self, graphs, spec,
                            batch_size: int | None = None) -> np.ndarray:
        """Logits for ``graphs`` via the supernet's one-hot fast path.

        Requires an attached supernet.  With one-hot mixing weights every
        supernet dimension takes the branch-skipping path, so this costs
        one derived-model-shaped forward per batch and is bit-identical to
        a :class:`DerivedModel` warm-started from the same supernet (under
        a float32 policy too: both run on weights cast once).
        """
        from ..core.search import spec_forward

        supernet = self.supernet
        if supernet is None:
            raise RuntimeError("one-hot scoring needs an attached supernet")
        with self._policy_scope():
            forward = spec_forward(supernet, spec)
        return self._sweep(graphs, batch_size or self.batch_size, forward,
                           supernet.num_tasks)

    def score_specs(self, specs, graphs, metric: str = "roc_auc",
                    batch_size: int | None = None,
                    keep_logits: bool = False) -> list[SpecScore]:
        """Score many candidate specs against one cached batch set.

        Each spec runs through the one-hot supernet fast path (attached
        supernet) or its persistent derived model (no supernet); the
        graphs are collated and plan-built exactly once for the whole
        fan-out *and* for every later call on the same graph set.  Labels
        come from the graphs themselves; ``metric`` follows
        :mod:`repro.metrics` (falls back on degenerate label sets).
        """
        if not graphs:
            # Unlike predictions (an empty logits array is well-defined),
            # a metric over zero graphs is not.
            raise ValueError("cannot score specs over an empty graph list")
        batch_size = batch_size or self.batch_size
        with self._policy_scope():
            # Fetch the loader inside the policy scope: the batch-cache key
            # includes the active dtype, so this resolves to the same
            # cached loader the predict computes will use.
            trues = self.batch_cache.loader(graphs, batch_size).labels()
        run = self.predict_spec_onehot if self.supernet is not None else self.predict
        results = []
        for spec in specs:
            logits = run(graphs, spec, batch_size)
            score = multitask_score_or_fallback(trues, logits, metric)
            results.append(SpecScore(spec=spec, score=score,
                                     logits=logits if keep_logits else None))
        return results

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Combined registry + batch-cache + forward-sweep counters and the
        compiled kernel backend's availability/build state."""
        with self._lock:
            # perfbench's score_batch._counters and serve_wire._ratio read these.
            logits = {"hits": 0, "misses": self._sweeps}
        stats = {
            "models": self.models.stats(),
            "batches": self.batch_cache.stats(),
            "logits": logits,
            "compiled": compiled_status(),
        }
        if self.policy is not None:
            # perfbench's score_batch._counters reads "workspace".
            stats["policy"] = {"dtype": self.policy.dtype,
                               "workspace": {"hits": 0, "misses": 0}}
        return stats

    def __repr__(self) -> str:
        return (f"InferenceService(models={len(self.models)}, "
                f"cached_splits={len(self.batch_cache)}, "
                f"supernet={'yes' if self.supernet is not None else 'no'})")
