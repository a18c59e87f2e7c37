"""The machine-readable lock-hierarchy table — single source of truth.

Every ``threading.Lock``/``RLock`` created anywhere in ``src/repro``
must appear here (rule REP006), and the ranks here drive both the static
lock-order rule (REP001) and the runtime :class:`~repro.devtools.runtime.
LockOrderGuard`.  The prose lock-order section in
:mod:`repro.serve.service` is generated from this table's *levels*; a
tier-1 test asserts every entry is named there.

Ranks are ordered coarse-to-fine: a thread may only acquire locks of
strictly increasing rank (same-rank re-acquisition is allowed for RLocks
only).  ``level`` groups ranks into the five documented tiers of the
serve stack's prose table (cluster front end above server internals,
leaf registries at the bottom).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LockSpec", "LOCK_HIERARCHY", "spec_for", "render_lock_table"]


@dataclass(frozen=True)
class LockSpec:
    """One registered lock.

    Parameters
    ----------
    rank:
        Total acquisition order — acquire strictly increasing ranks only.
    level:
        Documented tier (1-5) in the :mod:`repro.serve.service` prose.
    module:
        Defining file, relative to ``src/repro`` (e.g. ``serve/router.py``).
    owner:
        Defining class, or ``None`` for a module-global lock.
    name:
        Attribute / global name of the lock (e.g. ``_lock``).
    kind:
        ``"Lock"`` or ``"RLock"``.
    description:
        What the lock guards (one line, rendered into the table).
    guards:
        Module-global names whose mutation this lock licenses (consumed
        by rule REP003).
    """

    rank: int
    level: int
    module: str
    owner: str | None
    name: str
    kind: str
    description: str
    guards: tuple = field(default_factory=tuple)

    @property
    def qualified(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}:{owner}{self.name}"


LOCK_HIERARCHY: tuple[LockSpec, ...] = (
    LockSpec(5, 1, "serve/cluster.py", "ClusterRouter", "_lock", "Lock",
             "cluster front end: shard health flags + dispatch counters; "
             "shard calls (which take the whole serve stack's locks in "
             "in-process doubles) run with no cluster lock held"),
    LockSpec(10, 2, "serve/server.py", "InferenceServer", "_lock", "RLock",
             "server lifecycle flags, worker bookkeeping, error ring"),
    LockSpec(20, 3, "serve/router.py", "BatchingRouter", "_lock", "RLock",
             "buckets, seq counter, flush counters, and (through two "
             "conditions over it) the server's job queue and idle "
             "workers; flush executes unlocked"),
    LockSpec(30, 4, "serve/service.py", "InferenceService", "_lock", "RLock",
             "forward-sweep counter"),
    LockSpec(50, 5, "serve/registry.py", "ModelRegistry", "_lock", "RLock",
             "model map, pin set, counters; cache-miss build runs under it"),
    LockSpec(51, 5, "serve/cache.py", "BatchCacheRegistry", "_lock", "RLock",
             "loader entry map and hit/miss counters"),
    LockSpec(52, 5, "graph/loader.py", "DataLoader", "_cache_lock", "Lock",
             "double-checked one-time batch materialization"),
    LockSpec(53, 5, "graph/graph.py", "Batch", "_plan_lock", "Lock",
             "lazy per-batch segment-plan and degree-norm builds"),
    LockSpec(54, 5, "graph/datasets.py", None, "_dataset_cache_lock", "Lock",
             "process-wide synthetic dataset cache",
             guards=("_DATASET_CACHE",)),
    LockSpec(56, 5, "serve/transport.py", "ServingProtocol", "_lock", "Lock",
             "submit/result ticket window"),
    LockSpec(58, 5, "nn/compiled/build.py", None, "_build_lock", "Lock",
             "one-time JIT build/load of each dtype's compiled kernel "
             "library (compiler discovery result, loaded handle, outcome)",
             guards=("_STATE",)),
)


def spec_for(module: str, owner: str | None, name: str) -> LockSpec | None:
    """The registered spec for a lock creation site, or None."""
    for spec in LOCK_HIERARCHY:
        if spec.module == module and spec.owner == owner and spec.name == name:
            return spec
    return None


def render_lock_table() -> str:
    """Human-readable rendering of the hierarchy (CLI ``lint --locks``)."""
    lines = ["rank  level  kind   lock",
             "----  -----  -----  ----"]
    for spec in sorted(LOCK_HIERARCHY, key=lambda s: s.rank):
        lines.append(f"{spec.rank:>4}  {spec.level:>5}  {spec.kind:<5}  "
                     f"{spec.qualified}  — {spec.description}")
    return "\n".join(lines)
