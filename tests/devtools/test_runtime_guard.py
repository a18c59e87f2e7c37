"""Runtime lock-order guard: the dynamic counterpart of lint rule REP001."""

import threading

import pytest

from repro.devtools import LockOrderGuard
from repro.devtools.runtime import LockOrderViolation, guard_serving_stack


class Holder:
    def __init__(self, reentrant=False):
        self._lock = threading.RLock() if reentrant else threading.Lock()


def no_model():  # never called: these tests send no requests
    raise AssertionError


def guarded_pair(low_rank=10, high_rank=50, reentrant=False):
    guard = LockOrderGuard()
    low, high = Holder(reentrant), Holder(reentrant)
    guard.wrap_instance(low, low_rank, name="low._lock")
    guard.wrap_instance(high, high_rank, name="high._lock")
    return guard, low, high


class TestGuardedOrdering:
    def test_descending_acquisition_passes(self):
        guard, low, high = guarded_pair()
        with low._lock:
            with high._lock:
                assert guard.held_ranks() == [(10, "low._lock"),
                                              (50, "high._lock")]
        assert guard.held_ranks() == []

    def test_inversion_raises(self):
        guard, low, high = guarded_pair()
        with high._lock:
            with pytest.raises(LockOrderViolation, match="rank 10"):
                low._lock.acquire()
        assert guard.held_ranks() == []

    def test_equal_rank_distinct_lock_raises(self):
        guard = LockOrderGuard()
        a, b = Holder(), Holder()
        guard.wrap_instance(a, 30, name="a._lock")
        guard.wrap_instance(b, 30, name="b._lock")
        with a._lock:
            with pytest.raises(LockOrderViolation):
                b._lock.acquire()

    def test_rlock_reentry_allowed(self):
        guard, low, _ = guarded_pair(reentrant=True)
        with low._lock:
            with low._lock:  # same guarded RLock: fine
                assert len(guard.held_ranks()) == 2

    def test_plain_lock_reentry_raises_instead_of_deadlocking(self):
        _, low, _ = guarded_pair(reentrant=False)
        with low._lock:
            with pytest.raises(LockOrderViolation, match="self-deadlock"):
                low._lock.acquire()

    def test_held_stacks_are_per_thread(self):
        guard, low, high = guarded_pair()
        errors = []
        with high._lock:  # main thread holds rank 50

            def other():
                try:
                    with low._lock:  # fresh thread, empty stack: fine
                        pass
                except BaseException as err:  # pragma: no cover
                    errors.append(err)

            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert errors == []


class TestWrapping:
    def test_unwrap_restores_raw_locks(self):
        holder = Holder()
        raw = holder._lock
        guard = LockOrderGuard()
        guard.wrap_instance(holder, 10, name="h")
        assert holder._lock is not raw
        guard.unwrap()
        assert holder._lock is raw

    def test_context_manager_unwraps(self):
        holder = Holder()
        raw = holder._lock
        with LockOrderGuard() as guard:
            guard.wrap_instance(holder, 10, name="h")
        assert holder._lock is raw

    def test_double_wrap_is_idempotent(self):
        holder = Holder()
        guard = LockOrderGuard()
        first = guard.wrap_instance(holder, 10, name="h")
        assert guard.wrap_instance(holder, 10, name="h") is first
        guard.unwrap()
        assert not hasattr(holder._lock, "rank")

    def test_wrap_module_global(self):
        from repro.nn.compiled import build

        raw = build._build_lock
        with LockOrderGuard() as guard:
            guard.wrap_module_global(build, "_build_lock", 58)
            assert build._build_lock.rank == 58
        assert build._build_lock is raw


class TestGuardServingStack:
    def test_wraps_service_and_module_locks_with_table_ranks(self):
        from repro.nn.compiled import build
        from repro.serve import InferenceService

        service = InferenceService(no_model, num_tasks=1)
        with guard_serving_stack(service=service):
            assert service._lock.rank == 30
            assert service.models._lock.rank == 50
            assert service.batch_cache._lock.rank == 51
            assert build._build_lock.rank == 58
            # The documented order works end to end...
            with service._lock:
                with service.models._lock:
                    pass
            # ...and the inversion is caught.
            with service.models._lock:
                with pytest.raises(LockOrderViolation):
                    service._lock.acquire()
        assert not hasattr(service._lock, "rank")  # restored

    def test_job_queue_conditions_are_rank_checked(self):
        # Regression: the server's _work/_room conditions captured the raw
        # router lock before the guard wrapped it, so acquisitions through
        # them were invisible and an inversion under them went unflagged.
        from repro.serve import InferenceServer, InferenceService

        server = InferenceServer(InferenceService(no_model, num_tasks=1),
                                 tick_interval_s=None)
        raw_work = server._work
        with guard_serving_stack(server) as guard:
            with server._work:
                assert guard.held_ranks() == [(20, "BatchingRouter._lock")]
                with pytest.raises(LockOrderViolation, match="rank 10"):
                    server._lock.acquire()
                # wait() drops the hold and re-takes it on wake-up.
                assert not server._work.wait(0.001)
                assert guard.held_ranks() == [(20, "BatchingRouter._lock")]
            with server._room:
                with pytest.raises(LockOrderViolation, match="rank 10"):
                    server._lock.acquire()
            assert guard.held_ranks() == []
        assert server._work is raw_work  # restored

    def test_started_server_is_refused(self):
        from repro.serve import InferenceServer, InferenceService

        service = InferenceService(no_model, num_tasks=1)
        with InferenceServer(service, num_workers=1,
                             tick_interval_s=None) as server:
            with pytest.raises(RuntimeError, match="before server.start"):
                guard_serving_stack(server)
