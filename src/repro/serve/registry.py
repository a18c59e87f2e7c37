"""Persistent derived-model registry for the serving layer.

A :class:`~repro.core.supernet.DerivedModel` is cheap to *run* (PR 1's
fast path made a derived forward cost one model, not |candidates| models)
but expensive to *build*: a fresh encoder from the factory, candidate
module construction, and a state-dict copy from the searched supernet.
A serving process that rebuilt the model per request would spend most of
its time there.  :class:`ModelRegistry` keeps fully constructed models
alive keyed by their spec, evicting least-recently-used entries.

Specs are frozen dataclasses, so the spec itself is the hash key;
:func:`spec_key` additionally provides a short stable digest for
checkpoint file names.

Thread safety
-------------
One coarse ``RLock`` guards the model map, pin set and counters, so the
registry may be shared by concurrent serving workers.  A cache-miss
``get`` *builds the model under the lock* — deliberately, since two
workers racing the same spec must not both build (and then serve two
different model objects for one spec).  The registry is a *leaf* lock in
the serve stack's documented lock order (see :mod:`repro.serve.service`):
model construction takes no serve-layer locks.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

__all__ = ["ModelRegistry", "spec_key"]


def spec_key(spec) -> str:
    """Short stable digest of a spec (for checkpoint naming / logging)."""
    return hashlib.sha256(spec.describe().encode()).hexdigest()[:16]


class ModelRegistry:
    """LRU cache of persistent :class:`DerivedModel` instances.

    Parameters
    ----------
    encoder_factory:
        Zero-argument callable returning a fresh (typically pre-trained)
        encoder — the same contract as :class:`~repro.core.api.S2PGNNFineTuner`.
    num_tasks:
        Downstream prediction width of every built model.
    capacity:
        Maximum number of models kept alive; least-recently-used models
        are evicted when a new spec arrives at capacity.
    seed:
        Seed for newly built models, matching ``DerivedModel(..., seed=...)``
        so a registry-built model is bit-identical to a hand-built one.
    dtype:
        Optional serving dtype (``"float32"``).  When set, every model
        entering the registry — built, externally added, or checkpoint
        loaded — has its frozen weights cast **once, in place, at
        registration** (:func:`repro.nn.policy.cast_module`), so forwards
        under the matching execution policy run cast-free.  A dtype-set
        registry therefore takes ownership of added models' weights;
        register a copy if the float64 original must survive.  Default
        None preserves weights bit-for-bit.
    """

    def __init__(self, encoder_factory, num_tasks: int, capacity: int = 8,
                 seed: int = 0, dtype: str | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.encoder_factory = encoder_factory
        self.num_tasks = num_tasks
        self.capacity = capacity
        self.seed = seed
        self.dtype = dtype
        self._models: "OrderedDict" = OrderedDict()
        # Externally registered models (e.g. a fine-tuned model the service
        # must keep serving verbatim) are pinned: exempt from LRU eviction,
        # since a rebuilt replacement would silently serve different weights.
        self._pinned: set = set()
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _build(self, spec, supernet=None):
        from ..core.supernet import DerivedModel

        model = DerivedModel(self.encoder_factory(), spec, self.num_tasks,
                             seed=self.seed)
        if supernet is not None:
            model.load_from_supernet(supernet)
        return model

    def get(self, spec, supernet=None):
        """The persistent model for ``spec`` (built on first use).

        With ``supernet`` given, a newly built model is warm-started from
        the searched shared weights (:meth:`DerivedModel.load_from_supernet`);
        a cached model is returned as-is — its weights may since have been
        fine-tuned further, which is exactly what a serving process wants
        to preserve.
        """
        with self._lock:
            model = self._models.get(spec)
            if model is not None:
                self._models.move_to_end(spec)
                self.hits += 1
                return model
            self.misses += 1
            model = self._build(spec, supernet=supernet)
            self.add(spec, model, pin=False)
            return model

    def add(self, spec, model, pin: bool = True) -> None:
        """Register a model under its spec.

        External registrations are *pinned* by default: they carry weights
        the registry cannot reproduce (a fine-tuned model), so LRU
        eviction never drops them — a later ``get`` must not silently
        rebuild and serve different weights.  Registry-built models
        (``pin=False``) remain evictable; pinned entries may carry the
        registry above ``capacity``, bounded by the caller's explicit
        ``add`` calls.
        """
        if self.dtype is not None:
            from ..nn.policy import cast_module

            cast_module(model, self.dtype)
        with self._lock:
            if spec not in self._models:
                while len(self._models) >= self.capacity:
                    victim = next(
                        (k for k in self._models if k not in self._pinned), None)
                    if victim is None:
                        break  # everything pinned: exceed capacity
                    del self._models[victim]
            self._models[spec] = model
            self._models.move_to_end(spec)
            if pin:
                self._pinned.add(spec)

    # ------------------------------------------------------------------
    def load_checkpoint(self, spec, path: str):
        """Register a *pinned* model for ``spec`` with ``path``'s weights.

        ``path`` is an ``.npz`` state dict as written by
        :func:`repro.nn.serialization.save_state_dict` /
        :func:`save_checkpoint` — e.g. a fine-tuned model persisted by a
        training run and re-served later.  The load is dtype-preserving
        end to end: a float32-cast serving checkpoint reloads as float32
        (no silent re-upcast), and a dtype-set registry casts whatever
        loads to its serving dtype at the closing ``add``.  A fresh model
        object is built and registered (replacing any cached one) rather
        than mutating an already served model in place, so a forward
        running on the old model finishes on the old weights and every
        later request sees the checkpoint; pinning keeps the checkpoint
        weights safe from LRU eviction.
        """
        from ..nn.serialization import load_state_dict

        model = self._build(spec)
        model.load_state_dict(load_state_dict(path))
        self.add(spec, model)
        return model

    # (load_checkpoint builds outside the lock on purpose: the checkpoint
    # read is slow I/O, and ``add`` re-synchronizes at the end.)

    def save_checkpoint(self, spec, path: str) -> str:
        """Persist the registered model for ``spec`` to ``path`` (npz)."""
        from ..nn.serialization import save_checkpoint

        with self._lock:
            if spec not in self._models:
                raise KeyError(f"no model registered for spec {spec.describe()!r}")
            model = self._models[spec]
        save_checkpoint(model.state_dict(),
                        {"spec": spec.describe(), "key": spec_key(spec)}, path)
        return path

    # ------------------------------------------------------------------
    def __contains__(self, spec) -> bool:
        with self._lock:
            return spec in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def stats(self) -> dict:
        # ``_pinned`` is a subset of the registered specs by construction:
        # a spec is pinned only when registered, and eviction skips pinned
        # entries, so the count is exact without re-deriving the
        # intersection.
        with self._lock:
            return {
                "models": len(self._models),
                "pinned": len(self._pinned),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "dtype": self.dtype or "float64",
            }

    def __repr__(self) -> str:
        return (f"ModelRegistry(models={len(self._models)}, "
                f"hits={self.hits}, misses={self.misses})")
