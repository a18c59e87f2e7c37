"""Shared batch cache: one collated + plan-cached loader per (graph set, batch size).

Before this layer every phase of a run — searcher derivation, evolutionary
fitness, fine-tune early stopping, post-fit prediction — built its *own*
evaluation :class:`~repro.graph.loader.DataLoader`, so the same validation
or test split was re-collated (and its :class:`~repro.nn.segment.SegmentPlan`
caches rebuilt) once per phase.  :class:`BatchCacheRegistry` centralizes
that: it hands out one caching loader per *(graph set, batch size)* and
evicts least-recently-used entries, so a whole run — and a long-lived
:class:`~repro.serve.service.InferenceService` scoring many requests —
collates each split exactly once.

Keying
------
Entries are keyed by the *identity of the member graphs in order* (a tuple
of ``id(graph)``) **plus the active execution-policy dtype** — a float64
evaluation path and a float32 serving path requesting the same split get
separate loaders, because a :class:`~repro.graph.graph.Batch` materializes
its float payloads in the collation-time policy dtype and is immutable
afterwards.  Entries are not keyed by the identity of the containing list.
``MolecularDataset.split`` memoizes split *indices* but builds a fresh list
of the same :class:`~repro.graph.graph.Graph` objects on every call, so an
``id(list)`` key (what the searcher used before this layer) silently missed
across phases.  The registry keeps a reference to each entry's graph list,
so member ids stay valid for the entry's lifetime.

The contract is the segment-plan layer's immutable-after-collation rule:
a cached batch (and its plans) is valid as long as the underlying graphs
are unchanged.  Callers that mutate graphs must :meth:`invalidate
<BatchCacheRegistry.invalidate>` first — the one way to re-collate.

Thread safety
-------------
The registry is safe to share across serving workers: one coarse ``RLock``
guards the entry map and counters.  It is a *leaf* lock in the serve
stack's documented lock order (see :mod:`repro.serve.service`) — nothing
is called back out of the registry while it is held except loader
construction, which takes no serve-layer locks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..graph.loader import DataLoader
from ..nn.policy import active_dtype

__all__ = ["BatchCacheRegistry"]


class BatchCacheRegistry:
    """LRU registry of cached evaluation loaders, shared across phases.

    Parameters
    ----------
    capacity:
        Maximum number of distinct ``(graph set, batch size)`` entries kept
        alive at once.  Serving workloads that score many transient graph
        lists evict least-recently-used entries instead of growing without
        bound.

    Only *unshuffled* loaders are registered: a shared cache must yield the
    same batches to every consumer, which is exactly the deterministic
    dataset-order partition.  Shuffled training loaders keep their
    per-phase RNG state and stay outside the registry.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # key -> (graphs, loader); graphs kept alive so id()s stay valid.
        self._entries: "OrderedDict[tuple, tuple[list, DataLoader]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Collations done by since-dropped loaders, so stats() stays a
        # monotonic total across evictions and invalidations.
        self._dropped_collations = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @staticmethod
    def _key(graphs, batch_size: int) -> tuple:
        # The policy dtype joins the key: batches snapshot it at collation,
        # so loaders must not be shared across execution dtypes.
        return (batch_size, active_dtype().str,
                tuple(id(g) for g in graphs))

    def loader(self, graphs, batch_size: int) -> DataLoader:
        """The shared caching loader for ``graphs`` at ``batch_size``.

        Two calls with *different list objects holding the same graphs in
        the same order* return the same loader — the cross-phase case this
        registry exists for.
        """
        key = self._key(graphs, batch_size)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            self.misses += 1
            while len(self._entries) >= self.capacity:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._dropped_collations += dropped.num_collations
            loader = DataLoader(graphs, batch_size=batch_size, cache=True)
            # Pin the loader's own member list so the id()s in the key stay
            # valid for exactly the entry's lifetime.
            self._entries[key] = (loader.graphs, loader)
            return loader

    def warm(self, graphs, batch_size: int) -> DataLoader:
        """Pre-pay collation *and* segment-plan construction for a split.

        A serving deployment calls this at startup so the first live
        request hits fully built batches instead of paying the one-time
        plan cost inline.
        """
        loader = self.loader(graphs, batch_size)
        for batch in loader.materialize():
            batch.edge_plan()
            batch.edge_src_plan()
            batch.node_plan()
        return loader

    # ------------------------------------------------------------------
    def invalidate(self, graphs=None) -> None:
        """Drop entries whose graph set contains any graph of ``graphs``
        (all entries when ``graphs`` is None).  Call after mutating graphs
        — cached batches snapshot collation-time values."""
        with self._lock:
            if graphs is None:
                keys = list(self._entries)
            else:
                stale = {id(g) for g in graphs}
                keys = [k for k in self._entries if stale.intersection(k[2])]
            for key in keys:
                self._dropped_collations += self._entries.pop(key)[1].num_collations

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Cache-effectiveness counters (entries, hits/misses, collations).

        ``collations`` is the monotonic total across the registry's
        lifetime, including work done by since-evicted loaders.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "collations": self._dropped_collations + sum(
                    loader.num_collations for _, loader in self._entries.values()
                ),
            }

    def __repr__(self) -> str:
        return (f"BatchCacheRegistry(entries={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses})")
