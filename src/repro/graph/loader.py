"""Mini-batch loader: shuffles graphs and yields disjoint-union Batches.

Two iteration modes:

* **fresh** (default) — reshuffle the *graph* order each epoch and collate
  every batch from scratch, exactly as a PyG-style loader would.
* **cached** (``cache=True``) — partition the dataset into batches once,
  collate each partition exactly once, and reshuffle only the *order in
  which the pre-built batches are yielded* each epoch.  The numpy
  concatenation cost of collation is paid once per split instead of once
  per epoch, which is what makes repeated supernet sweeps (search epochs,
  per-candidate validation scoring) cheap.

Because a :class:`Batch` lazily caches its segment plans (edge-destination
plan, node->graph plan, GCN degree norms — see :mod:`repro.nn.segment`),
cached mode also amortizes that per-batch precomputation: the first forward
over each batch builds its plans, and every later epoch — and every phase
(searcher, evolution, finetune) sharing the loader — reuses them.  Fresh
mode re-collates per epoch and therefore also rebuilds plans per epoch.

Collation captures the active :class:`~repro.nn.policy.ExecutionPolicy`
dtype into each :class:`Batch` (see its docstring), so a cached loader's
batches are materialized once in the dtype of whoever collates first.
The serving layer runs :meth:`DataLoader.materialize` *inside* its policy
scope for exactly this reason; a loader shared across policies should be
materialized under the policy its consumers will run.

:func:`eval_logits` is the one eval sweep every evaluator runs its
forwards through, and :func:`eval_score` the one scorer on top of it.
"""

from __future__ import annotations

import threading

import numpy as np

from ..metrics import multitask_score, multitask_score_or_fallback
from ..nn import inference
from ..nn.policy import active_dtype
from .graph import Batch, Graph

__all__ = ["DataLoader", "eval_logits", "eval_score"]


class DataLoader:
    """Iterate over graphs in batches.

    Parameters
    ----------
    graphs:
        The dataset (a list of :class:`Graph`).
    batch_size:
        Paper default is 32 (Sec. IV-A4).
    shuffle:
        Reshuffle each epoch using the provided RNG.  In fresh mode the
        graph order is shuffled (batch membership changes per epoch); in
        cached mode the batch order is shuffled (membership is fixed at
        the first epoch's dataset-order partition).
    drop_last:
        Drop a trailing incomplete batch (useful for BatchNorm stability).
        Combined with ``cache``, the dropped tail is the *same* graphs
        every epoch (fresh mode re-draws which graphs land in the dropped
        tail each epoch) — avoid ``cache + drop_last`` for training loops
        that must eventually visit every graph.
    cache:
        Collate each batch once and reuse it every epoch (see module
        docstring).  :attr:`num_collations` counts Batch constructions so
        callers can verify the cache is working.
    """

    def __init__(
        self,
        graphs: list[Graph],
        batch_size: int = 32,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
        drop_last: bool = False,
        cache: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.graphs = list(graphs)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng or np.random.default_rng(0)
        self.drop_last = drop_last
        self.cache = cache
        self.num_collations = 0
        self._cached_batches: list[Batch] | None = None
        # Guards the one-time cached-partition build (and its collation
        # counter) so concurrent serving workers iterating one shared
        # cached loader collate each split exactly once.
        self._cache_lock = threading.Lock()

    def __len__(self) -> int:
        n = len(self.graphs)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _collate(self, indices: np.ndarray) -> Batch:
        self.num_collations += 1
        return Batch([self.graphs[i] for i in indices], indices=indices)

    def _materialize_cache(self) -> list[Batch]:
        """Build the fixed batch partition exactly once.

        With ``shuffle`` the membership is drawn from one random permutation
        — crucial because molecular datasets arrive scaffold-sorted, and
        contiguous dataset-order chunks would make every batch a
        scaffold-homogeneous block (badly non-IID gradients).  Without
        ``shuffle`` the partition preserves dataset order.
        """
        if self._cached_batches is None:
            with self._cache_lock:
                if self._cached_batches is None:
                    n = len(self.graphs)
                    order = np.arange(n)
                    if self.shuffle:
                        self.rng.shuffle(order)
                    batches = []
                    for start in range(0, n, self.batch_size):
                        idx = order[start:start + self.batch_size]
                        if self.drop_last and idx.size < self.batch_size:
                            break
                        batches.append(self._collate(idx))
                    self._cached_batches = batches
        return self._cached_batches

    def materialize(self) -> list[Batch]:
        """Pre-collate and return the cached batch partition (dataset order).

        Only meaningful in cached mode — the serving layer uses it to
        pre-pay collation (and, by touching each batch's plans, segment
        planning) before the first request arrives.
        """
        if not self.cache:
            raise RuntimeError("materialize() requires DataLoader(cache=True)")
        return self._materialize_cache()

    def labels(self) -> np.ndarray:
        """Every batch's ``y`` concatenated in iteration order (dataset
        order for an unshuffled loader).  ``ValueError`` if a batch has
        none (see :meth:`Batch.require_y`)."""
        return np.concatenate([batch.require_y() for batch in self], axis=0)

    def __iter__(self):
        if self.cache:
            batches = self._materialize_cache()
            order = np.arange(len(batches))
            if self.shuffle:
                self.rng.shuffle(order)
            for i in order:
                yield batches[i]
            return
        order = np.arange(len(self.graphs))
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            chunk = order[start:start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                return
            yield self._collate(chunk)


def eval_logits(loader, forward, num_tasks: int, num_outputs: int | None = None):
    """Eval-mode sweep: ``forward(batch)`` logits over ``loader`` under
    :class:`~repro.nn.inference`.  Zero batches (an empty graph list)
    yield a correctly shaped ``(0, num_tasks)`` array.

    With ``num_outputs``, ``forward(batch)`` returns that many logits
    tensors (one per spec of a many-spec sweep, see
    :meth:`~repro.core.supernet.S2PGNNSupernet.forward_specs`) and the
    result is a list of ``num_outputs`` arrays, in the same order.

    Every evaluator — fine-tune validation, spec scoring during search
    and evolution, ``S2PGNNFineTuner.predict`` and the serving layer —
    runs its forwards through this one sweep.  It runs under whatever
    execution policy the caller has active.
    """
    with inference():
        if num_outputs is None:
            return _stack([forward(batch).data for batch in loader], num_tasks)
        preds = [[out.data for out in forward(batch)] for batch in loader]
    return [_stack([pred[i] for pred in preds], num_tasks)
            for i in range(num_outputs)]


def _stack(preds: list, num_tasks: int) -> np.ndarray:
    if not preds:
        return np.zeros((0, num_tasks), dtype=active_dtype())
    return np.concatenate(preds, axis=0)


def eval_score(loader, forward, metric: str, allow_fallback: bool = True,
               num_outputs: int | None = None):
    """Score :func:`eval_logits` over an *unshuffled* ``loader`` against
    its labels with ``metric`` (see :mod:`repro.metrics`); with
    ``num_outputs``, a list of one score per output of ``forward``.

    With ``allow_fallback`` a metric that is undefined on the labels
    (single-class ROC-AUC) falls back to
    :func:`~repro.metrics.fallback_score`; otherwise it raises.  A metric
    over zero graphs is never defined, so an empty graph list raises
    ``ValueError`` up front.
    """
    if not loader.graphs:
        raise ValueError("cannot score an empty graph list")
    y_true = loader.labels()
    score = multitask_score_or_fallback if allow_fallback else multitask_score
    logits = eval_logits(loader, forward, y_true.shape[1], num_outputs)
    if num_outputs is None:
        return score(y_true, logits, metric)
    return [score(y_true, spec_logits, metric) for spec_logits in logits]
