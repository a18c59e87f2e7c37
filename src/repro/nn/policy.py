"""Inference memory plane: execution dtype policy + preallocated workspaces.

Everything in the stack historically computed in numpy's default
``float64`` — :class:`~repro.nn.tensor.Tensor` hard-coded the dtype, every
segment kernel allocated ``float64`` outputs, and collation inherited it.
That is the right default for *training* (bit-exact differential testing,
robust finite-difference gradcheck), but it doubles the memory bandwidth
of every hot CSR matvec at inference time for no accuracy benefit.  This
module makes the choice explicit:

* :class:`ExecutionPolicy` — the dtype every new tensor / kernel output is
  materialized in, plus an optional :class:`WorkspacePool` of preallocated
  forward buffers.  The active policy lives on a ``ContextVar`` alongside
  the existing ``no_grad`` state, so it is context-local
  and thread-isolated: a serving worker running float32 forwards cannot
  perturb a float64 training loop in another thread.
* :func:`use_dtype` / :func:`serving_policy` — the two entry points.
  ``with use_dtype("float32"): ...`` runs a block in float32;
  ``with serving_policy(): ...`` is the serving preset (float32 +
  workspace reuse).  Policies are re-entrant context managers.
* :class:`WorkspacePool` — keyed ``(shape, dtype)`` arenas of preallocated
  output buffers with hit/miss stats.  Arenas are **per-thread**, so a
  pool shared by a whole worker pool needs no cross-thread coordination on
  the hot path; :meth:`WorkspacePool.begin_pass` rewinds the calling
  thread's cursors at the start of each forward so a steady-state stream
  of identical micro-batches allocates nothing.

Dtype contract per path
-----------------------
* **Train / eval (default policy)** — float64, bit-identical to the
  pre-policy behaviour.  The tier-2 differential suite pins this.
* **Serving (``serving_policy()``)** — float32, toleranced parity against
  the float64 path (see ``tests/serve/test_memory_plane.py`` and the
  committed accuracy delta in ``benchmarks/BENCH_memory_plane.json``).

Workspace buffer lifetime
-------------------------
A leased buffer is valid until the *same thread's* next
:meth:`~WorkspacePool.begin_pass`.  The serve layer begins a pass per
batch forward and copies logits out before the next one, which is exactly
the contract; anything that must outlive the pass must be copied.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExecutionPolicy",
    "WorkspacePool",
    "active_policy",
    "active_dtype",
    "active_workspace",
    "use_policy",
    "use_dtype",
    "serving_policy",
    "workspace_zeros",
    "workspace_empty",
    "cast_module",
]

#: dtypes a policy may select; everything else (float16 without kernels,
#: integer compute) would silently break the autograd contract.
_ALLOWED_DTYPES = ("float64", "float32")


class WorkspacePool:
    """Preallocated forward workspaces, keyed by ``(shape, dtype)``.

    Each thread leases from its own arena (created on first use), so
    concurrent serving workers sharing one pool never contend — the only
    lock guards the arena registry used by :meth:`stats`.  Within one
    *pass* (one forward), repeated leases of the same key return
    *distinct* buffers (a per-key cursor advances); across passes the
    cursors rewind and the same buffers are reused, so a steady-state
    stream of identical micro-batches hits 100% after the first pass.
    """

    def __init__(self):
        self._local = threading.local()
        # Arena registry for stats aggregation only — never on the lease
        # path after a thread's first lease.
        self._arenas: list[dict] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _arena(self) -> dict:
        arena = getattr(self._local, "arena", None)
        if arena is None:
            arena = {"buffers": {}, "cursors": {}, "hits": 0, "misses": 0,
                     "passes": 0}
            self._local.arena = arena
            with self._lock:
                self._arenas.append(arena)
        return arena

    def begin_pass(self) -> None:
        """Rewind the calling thread's lease cursors (start of a forward).

        Buffers leased before this call are considered dead: they may be
        handed out again by subsequent leases on this thread.
        """
        arena = self._arena()
        arena["cursors"].clear()
        arena["passes"] += 1

    def _lease(self, shape: tuple, dtype) -> tuple[np.ndarray, bool]:
        arena = self._arena()
        key = (tuple(shape), np.dtype(dtype).str)
        slot = arena["cursors"].get(key, 0)
        arena["cursors"][key] = slot + 1
        stack = arena["buffers"].setdefault(key, [])
        if slot < len(stack):
            arena["hits"] += 1
            return stack[slot], True
        arena["misses"] += 1
        buffer = np.empty(shape, dtype=dtype)
        stack.append(buffer)
        return buffer, False

    def empty(self, shape, dtype) -> np.ndarray:
        """Lease an uninitialized buffer (contents arbitrary on a hit)."""
        return self._lease(shape, dtype)[0]

    def zeros(self, shape, dtype) -> np.ndarray:
        """Lease a zero-filled buffer (hits are re-zeroed in place)."""
        buffer = self._lease(shape, dtype)[0]
        buffer.fill(0)
        return buffer

    def reset(self) -> None:
        """Drop every arena's buffers (all threads) and zero the stats."""
        with self._lock:
            arenas = list(self._arenas)
        for arena in arenas:
            arena["buffers"].clear()
            arena["cursors"].clear()
            arena["hits"] = 0
            arena["misses"] = 0
            arena["passes"] = 0

    def stats(self) -> dict:
        """Aggregated hit/miss/byte counters across every thread's arena."""
        with self._lock:
            arenas = list(self._arenas)
        hits = sum(a["hits"] for a in arenas)
        misses = sum(a["misses"] for a in arenas)
        total = hits + misses
        held = sum(buf.nbytes for a in arenas
                   for stack in a["buffers"].values() for buf in stack)
        return {
            "threads": len(arenas),
            "hits": hits,
            "misses": misses,
            "passes": sum(a["passes"] for a in arenas),
            "hit_rate": (hits / total) if total else 0.0,
            "buffers": sum(len(stack) for a in arenas
                           for stack in a["buffers"].values()),
            "held_bytes": int(held),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"WorkspacePool(buffers={stats['buffers']}, "
                f"hits={stats['hits']}, misses={stats['misses']})")


@dataclass(frozen=True)
class ExecutionPolicy:
    """The dtype/allocation policy a block of work executes under.

    Parameters
    ----------
    dtype:
        ``"float64"`` (training default) or ``"float32"`` (serving).
        Every new :class:`~repro.nn.tensor.Tensor` and every segment-kernel
        output under the policy is materialized in this dtype.
    workspace:
        Optional :class:`WorkspacePool`; when set, forward-path kernels
        lease output buffers from it instead of allocating.

    A policy instance is a re-entrant, context-local context manager —
    ``with policy: ...`` activates it for the current thread/context only.
    One instance may be entered concurrently from many threads (the
    serving worker pool shares a single policy): the nesting token stack
    is thread-local, so each thread pushes and pops only its own tokens.
    """

    dtype: str = "float64"
    workspace: WorkspacePool | None = None

    def __post_init__(self):
        if self.dtype not in _ALLOWED_DTYPES:
            raise ValueError(
                f"unsupported policy dtype {self.dtype!r}; "
                f"known: {_ALLOWED_DTYPES}")
        # Cache the numpy dtype object: Tensor construction consults it on
        # every op, so the string -> np.dtype conversion must not recur.
        object.__setattr__(self, "np_dtype", np.dtype(self.dtype))
        object.__setattr__(self, "_tls", threading.local())

    def __enter__(self) -> "ExecutionPolicy":
        stack = getattr(self._tls, "tokens", None)
        if stack is None:
            stack = self._tls.tokens = []
        stack.append(_ACTIVE_POLICY.set(self))
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_POLICY.reset(self._tls.tokens.pop())
        return False


#: Context-local active policy.  Fresh threads start from the default
#: (float64, no workspace) — they do not inherit the spawning thread's
#: serving policy, mirroring ``no_grad`` semantics.
_DEFAULT_POLICY = ExecutionPolicy()
_ACTIVE_POLICY: contextvars.ContextVar[ExecutionPolicy] = contextvars.ContextVar(
    "repro_execution_policy", default=_DEFAULT_POLICY)


def active_policy() -> ExecutionPolicy:
    """The policy tensor ops currently execute under (context-local)."""
    return _ACTIVE_POLICY.get()


def active_dtype() -> np.dtype:
    """The active policy's numpy dtype (``float64`` unless overridden)."""
    return _ACTIVE_POLICY.get().np_dtype


def active_workspace() -> WorkspacePool | None:
    """The active policy's workspace pool, or None when allocation is live."""
    return _ACTIVE_POLICY.get().workspace


def use_policy(policy: ExecutionPolicy) -> ExecutionPolicy:
    """Activate an existing policy: ``with use_policy(p): ...``.

    Purely a readability alias — the policy object *is* the context
    manager; this returns it unchanged.
    """
    return policy


def use_dtype(dtype: str) -> ExecutionPolicy:
    """A policy selecting only a dtype (no workspace pool).

    ``with use_dtype("float32"): ...`` runs the block's tensor ops and
    kernel allocations in float32.
    """
    return ExecutionPolicy(dtype=str(dtype))


def serving_policy(dtype: str = "float32",
                   workspace: bool = True) -> ExecutionPolicy:
    """The serving preset: float32 compute + preallocated workspaces.

    Each call builds a fresh :class:`WorkspacePool` (arenas are
    per-thread, so one policy may back a whole worker pool).
    """
    return ExecutionPolicy(dtype=str(dtype),
                           workspace=WorkspacePool() if workspace else None)


# ----------------------------------------------------------------------
# allocation helpers: the one place forward kernels get output buffers
# ----------------------------------------------------------------------
def workspace_zeros(shape, dtype) -> np.ndarray:
    """A zeroed output buffer: leased from the active workspace pool when
    one is installed, freshly allocated otherwise."""
    pool = _ACTIVE_POLICY.get().workspace
    if pool is not None:
        return pool.zeros(shape, dtype)
    return np.zeros(shape, dtype=dtype)


def workspace_empty(shape, dtype) -> np.ndarray:
    """An uninitialized output buffer (every element will be written)."""
    pool = _ACTIVE_POLICY.get().workspace
    if pool is not None:
        return pool.empty(shape, dtype)
    return np.empty(shape, dtype=dtype)


def cast_module(module, dtype) -> "module":
    """Cast every parameter and floating buffer of ``module`` in place.

    This is the one-time registration cast the serving
    :class:`~repro.serve.registry.ModelRegistry` applies to frozen models:
    after it, a forward under the matching :func:`use_dtype` policy runs
    entirely in ``dtype`` with no per-op casting copies.  Integer buffers
    (index tables) are left untouched.  Gradients are dropped — a cast
    model is a serving artifact, not a training state.
    """
    np_dtype = np.dtype(dtype)
    if np_dtype.name not in _ALLOWED_DTYPES:
        raise ValueError(f"unsupported cast dtype {dtype!r}")
    for _, param in module.named_parameters():
        if param.data.dtype != np_dtype:
            param.data = param.data.astype(np_dtype)
        param.grad = None
    for owner, full in module._iter_buffer_owners():
        leaf = full.rsplit(".", 1)[-1]
        value = owner._buffers[leaf]
        if value.dtype.kind == "f" and value.dtype != np_dtype:
            owner.set_buffer(leaf, value.astype(np_dtype))
    return module
