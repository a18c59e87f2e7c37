"""Debug-mode runtime lock-order guard — the dynamic witness for REP001.

:class:`LockOrderGuard` wraps live ``threading.Lock``/``RLock`` objects
in rank-checking proxies: each thread keeps its own stack of held ranks,
and acquiring a lock whose rank is <= the highest rank already held (by
a *different* guarded lock) raises :class:`LockOrderViolation`
immediately — turning a latent deadlock into a loud test failure.  The
tier-2 stress suite runs its hammer threads under a guard, so every
interleaving it explores also validates the documented hierarchy.

Usage::

    guard = LockOrderGuard()
    guard.wrap_instance(service, rank=30, attr="_lock",
                        name="InferenceService._lock")
    ...
    guard.unwrap()   # restore the raw locks (also a context manager)

Guarded locks are transparent for ``with``/``acquire``/``release``;
re-entry of the *same* guarded RLock is always allowed.  The guard is
itself thread-safe: wrapping happens before the worker threads start,
and per-thread state lives in ``threading.local``.
"""

from __future__ import annotations

import threading

from .locks import LOCK_HIERARCHY

__all__ = ["LockOrderGuard", "LockOrderViolation", "guard_serving_stack"]


class LockOrderViolation(AssertionError):
    """A thread acquired locks against the documented hierarchy."""


class _GuardedLock:
    """Rank-checking proxy around one Lock/RLock instance."""

    def __init__(self, raw, rank: int, name: str, state):
        self._raw = raw
        self.rank = rank
        self.name = name
        self._state = state
        self._reentrant = isinstance(raw, type(threading.RLock()))

    # -- rank bookkeeping ----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._state, "stack", None)
        if stack is None:
            stack = self._state.stack = []
        return stack

    def _check(self) -> None:
        stack = self._stack()
        if not stack:
            return
        top_rank, top_name, top_lock = max(stack, key=lambda e: e[0])
        if any(entry[2] is self for entry in stack):
            if not self._reentrant:
                raise LockOrderViolation(
                    f"re-acquiring non-reentrant {self.name} already held "
                    "by this thread (self-deadlock)")
            return  # re-entry of this very RLock

        if self.rank <= top_rank:
            raise LockOrderViolation(
                f"lock-order violation: acquiring {self.name} "
                f"(rank {self.rank}) while holding {top_name} "
                f"(rank {top_rank})")

    # -- lock protocol --------------------------------------------------
    def acquire(self, *args, **kwargs):
        self._check()
        acquired = self._raw.acquire(*args, **kwargs)
        if acquired:
            self._stack().append((self.rank, self.name, self))
        return acquired

    def release(self):
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][2] is self:
                del stack[index]
                break
        self._raw.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    # -- threading.Condition protocol ---------------------------------
    # A Condition built over this proxy calls these around wait(): the
    # waiter drops every hold of the lock from its stack and re-acquires
    # them, rank-checked, when it wakes.
    def _is_owned(self) -> bool:
        return any(entry[2] is self for entry in self._stack())

    def _release_save(self) -> int:
        holds = sum(entry[2] is self for entry in self._stack())
        for _ in range(holds):
            self.release()
        return holds

    def _acquire_restore(self, holds: int) -> None:
        for _ in range(holds):
            self.acquire()

    def __repr__(self) -> str:
        return f"_GuardedLock({self.name}, rank={self.rank})"


class LockOrderGuard:
    """Wrap registered locks on live objects; assert rank order per-thread.

    Wrapped locations are remembered so :meth:`unwrap` (or leaving the
    context manager) restores the raw locks exactly.
    """

    def __init__(self):
        self._state = threading.local()
        self._wrapped: list = []  # (holder, attr, original value)

    # -- wrapping primitives -------------------------------------------
    def _swap(self, holder, attr: str, new) -> None:
        """Set ``holder.<attr>`` to ``new``; :meth:`unwrap` restores it."""
        self._wrapped.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def wrap_instance(self, obj, rank: int, attr: str = "_lock",
                      name: str | None = None) -> "_GuardedLock":
        """Replace ``obj.<attr>`` with a guarded proxy of itself."""
        raw = getattr(obj, attr)
        if isinstance(raw, _GuardedLock):
            return raw
        guarded = _GuardedLock(raw, rank,
                               name or f"{type(obj).__name__}.{attr}",
                               self._state)
        self._swap(obj, attr, guarded)
        return guarded

    def wrap_module_global(self, module, name: str, rank: int) -> "_GuardedLock":
        """Replace a module-global lock with a guarded proxy."""
        raw = getattr(module, name)
        if isinstance(raw, _GuardedLock):
            return raw
        guarded = _GuardedLock(raw, rank, f"{module.__name__}.{name}",
                               self._state)
        self._swap(module, name, guarded)
        return guarded

    def unwrap(self) -> None:
        """Restore every wrapped lock to its raw object."""
        while self._wrapped:
            holder, attr, raw = self._wrapped.pop()
            setattr(holder, attr, raw)

    def __enter__(self) -> "LockOrderGuard":
        return self

    def __exit__(self, exc_type, exc, tb):
        self.unwrap()
        return False

    def held_ranks(self) -> list:
        """This thread's currently held (rank, name) pairs (debugging)."""
        stack = getattr(self._state, "stack", [])
        return [(rank, name) for rank, name, _ in stack]


def _rank_of(owner: str | None, name: str) -> int:
    for spec in LOCK_HIERARCHY:
        if spec.owner == owner and spec.name == name:
            return spec.rank
    raise KeyError(f"no registered lock {owner}.{name}")


def guard_serving_stack(server=None, service=None,
                        guard: LockOrderGuard | None = None) -> LockOrderGuard:
    """Wrap a serving stack's registered locks with hierarchy ranks.

    Wraps the server lock, its router, the service lock, the model /
    batch-cache registries, and the module-global kernel-build lock —
    every table entry reachable from live objects without intercepting
    per-instance lazy locks (per-batch, per-loader), which are created
    after wrapping time.  The server's two job-queue conditions captured
    the raw router lock when they were built, so they are rebuilt over
    its proxy; that is why a server must be guarded before ``start()``
    (its workers would otherwise wait on the old conditions).  ``unwrap``
    (or the context manager) restores everything.
    """
    from ..nn.compiled import build as _build

    guard = guard or LockOrderGuard()
    if server is not None:
        if server._started:
            raise RuntimeError("guard the serving stack before server.start()")
        guard.wrap_instance(server, _rank_of("InferenceServer", "_lock"),
                            name="InferenceServer._lock")
        router_lock = guard.wrap_instance(
            server.router, _rank_of("BatchingRouter", "_lock"),
            name="BatchingRouter._lock")
        for attr in ("_work", "_room"):
            guard._swap(server, attr, threading.Condition(router_lock))
        if service is None:
            service = server.service
    if service is not None:
        guard.wrap_instance(service, _rank_of("InferenceService", "_lock"),
                            name="InferenceService._lock")
        guard.wrap_instance(service.models, _rank_of("ModelRegistry", "_lock"),
                            name="ModelRegistry._lock")
        guard.wrap_instance(service.batch_cache,
                            _rank_of("BatchCacheRegistry", "_lock"),
                            name="BatchCacheRegistry._lock")
    guard.wrap_module_global(_build, "_build_lock",
                             _rank_of(None, "_build_lock"))
    return guard
