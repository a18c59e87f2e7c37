"""Execution-policy semantics: dtype selection, workspaces, thread isolation.

PR 7's inference memory plane hangs off one ContextVar
(:data:`repro.nn.policy._ACTIVE_POLICY`); these tests pin the contracts
the serving stack builds on:

* the default policy is float64 with no workspace — bit-identical to the
  pre-policy stack, so training and the differential suite are untouched;
* ``use_dtype`` / ``serving_policy`` policies are re-entrant context
  managers, restore on exception unwind, and are thread-isolated exactly
  like ``no_grad`` (fresh threads get the defaults;
  one policy *instance* may be entered concurrently from many threads);
* :class:`WorkspacePool` leases per-thread keyed buffers: distinct
  buffers within one pass, the *same* buffers across passes (hits), and
  an aggregate ``stats()`` view that is cheap and consistent;
* :func:`cast_module` converts a module's floating state once, in place.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    ExecutionPolicy,
    Linear,
    Module,
    Parameter,
    Tensor,
    WorkspacePool,
    active_dtype,
    active_policy,
    active_workspace,
    cast_module,
    serving_policy,
    use_dtype,
    use_policy,
    workspace_empty,
    workspace_zeros,
)
from tests.nn.test_thread_state import run_in_thread


class TestExecutionPolicy:
    def test_default_policy_is_float64_without_workspace(self):
        assert active_dtype() == np.float64
        assert active_policy().dtype == "float64"
        assert active_workspace() is None

    def test_tensor_materializes_in_active_dtype(self):
        data = [1.0, 2.0, 3.0]
        assert Tensor(data).data.dtype == np.float64
        with use_dtype("float32"):
            assert Tensor(data).data.dtype == np.float32
        assert Tensor(data).data.dtype == np.float64

    def test_unsupported_dtype_rejected(self):
        for bad in ("float16", "int64", "complex128", "f8"):
            with pytest.raises(ValueError, match="unsupported policy dtype"):
                ExecutionPolicy(dtype=bad)

    def test_nesting_restores_outer_policy(self):
        with use_dtype("float32"):
            assert active_dtype() == np.float32
            with use_dtype("float64"):
                assert active_dtype() == np.float64
            assert active_dtype() == np.float32
        assert active_dtype() == np.float64

    def test_exception_unwind_restores_policy(self):
        with pytest.raises(RuntimeError):
            with use_dtype("float32"):
                raise RuntimeError("boom")
        assert active_dtype() == np.float64

    def test_one_instance_is_reentrant(self):
        policy = use_dtype("float32")
        with policy:
            with policy:
                assert active_policy() is policy
            assert active_policy() is policy
        assert active_dtype() == np.float64

    def test_use_policy_is_an_identity_alias(self):
        policy = ExecutionPolicy(dtype="float32")
        assert use_policy(policy) is policy

    def test_serving_policy_preset(self):
        policy = serving_policy()
        assert policy.dtype == "float32"
        assert isinstance(policy.workspace, WorkspacePool)
        # Fresh pool per call: two services never share buffers by accident.
        assert serving_policy().workspace is not policy.workspace
        assert serving_policy(workspace=False).workspace is None
        assert serving_policy("float64").dtype == "float64"

    def test_active_workspace_follows_policy(self):
        policy = serving_policy()
        with policy:
            assert active_workspace() is policy.workspace
        assert active_workspace() is None


class TestPolicyThreadIsolation:
    def test_fresh_thread_gets_default_policy(self):
        with serving_policy():
            assert active_dtype() == np.float32
            # Spawned threads mirror no_grad: defaults, not
            # the spawner's nesting.
            assert run_in_thread(active_dtype) == np.float64
            assert run_in_thread(active_workspace) is None
            assert active_dtype() == np.float32

    def test_policy_in_thread_does_not_leak_out(self):
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with use_dtype("float32"):
                entered.set()
                release.wait(timeout=10)

        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(timeout=10)
        assert active_dtype() == np.float64
        release.set()
        t.join()

    def test_one_instance_shared_across_threads(self):
        """The serving worker pool enters ONE policy object from N threads;
        each thread's enter/exit must only touch its own token stack."""
        policy = serving_policy()
        barrier = threading.Barrier(4)
        errors = []

        def worker():
            try:
                for _ in range(25):
                    with policy:
                        barrier.wait(timeout=10)
                        assert active_policy() is policy
                        with policy:  # re-entrancy under contention
                            assert active_dtype() == np.float32
                    assert active_dtype() == np.float64
            except BaseException as err:  # pragma: no cover - carrier
                errors.append(err)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestWorkspacePool:
    def test_first_lease_misses_then_hits_across_passes(self):
        pool = WorkspacePool()
        pool.begin_pass()
        first = pool.zeros((4, 3), np.float32)
        pool.begin_pass()
        second = pool.zeros((4, 3), np.float32)
        assert second is first  # same buffer recycled
        stats = pool.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["passes"] == 2

    def test_distinct_buffers_within_one_pass(self):
        pool = WorkspacePool()
        pool.begin_pass()
        a = pool.empty((8,), np.float32)
        b = pool.empty((8,), np.float32)
        assert a is not b  # cursor advanced: both leases live simultaneously
        pool.begin_pass()
        assert pool.empty((8,), np.float32) is a
        assert pool.empty((8,), np.float32) is b

    def test_zeros_rezeroes_recycled_buffers(self):
        pool = WorkspacePool()
        pool.begin_pass()
        buf = pool.zeros((5,), np.float64)
        buf += 7.0
        pool.begin_pass()
        again = pool.zeros((5,), np.float64)
        assert again is buf
        assert np.array_equal(again, np.zeros(5))

    def test_keys_separate_shapes_and_dtypes(self):
        pool = WorkspacePool()
        pool.begin_pass()
        f32 = pool.empty((4,), np.float32)
        f64 = pool.empty((4,), np.float64)
        other = pool.empty((5,), np.float32)
        assert len({id(f32), id(f64), id(other)}) == 3
        assert f32.dtype == np.float32 and f64.dtype == np.float64
        assert pool.stats()["buffers"] == 3

    def test_stats_shape_and_held_bytes(self):
        pool = WorkspacePool()
        assert pool.stats() == {
            "threads": 0, "hits": 0, "misses": 0, "passes": 0,
            "hit_rate": 0.0, "buffers": 0, "held_bytes": 0,
        }
        pool.begin_pass()
        pool.zeros((10,), np.float32)
        stats = pool.stats()
        assert stats["threads"] == 1
        assert stats["held_bytes"] == 40  # 10 * float32
        assert stats["hit_rate"] == 0.0
        pool.begin_pass()
        pool.zeros((10,), np.float32)
        assert pool.stats()["hit_rate"] == 0.5

    def test_reset_drops_buffers_and_counters(self):
        pool = WorkspacePool()
        pool.begin_pass()
        pool.zeros((6,), np.float64)
        pool.reset()
        stats = pool.stats()
        assert stats["buffers"] == 0 and stats["held_bytes"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["passes"] == 0

    def test_arenas_are_per_thread(self):
        """Two threads leasing the same key must get distinct buffers and
        never contend — each owns a private arena."""
        pool = WorkspacePool()
        barrier = threading.Barrier(3)
        ids = {}

        def worker(slot):
            barrier.wait(timeout=10)
            for _ in range(50):
                pool.begin_pass()
                buf = pool.zeros((16,), np.float32)
                buf.fill(slot)
                assert np.all(buf == slot)  # no cross-thread aliasing
            ids[slot] = id(buf)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids.values())) == 3
        stats = pool.stats()
        assert stats["threads"] == 3
        assert stats["misses"] == 3  # one allocation per thread, ever
        assert stats["hits"] == 3 * 50 - 3


class TestWorkspaceHelpers:
    def test_helpers_allocate_without_a_pool(self):
        out = workspace_zeros((3, 2), np.float32)
        assert out.dtype == np.float32 and np.array_equal(out, np.zeros((3, 2)))
        assert workspace_empty((3, 2), np.float64).shape == (3, 2)

    def test_helpers_lease_from_the_active_pool(self):
        policy = serving_policy()
        with policy:
            policy.workspace.begin_pass()
            a = workspace_zeros((7,), np.float32)
            policy.workspace.begin_pass()
            b = workspace_zeros((7,), np.float32)
        assert b is a
        assert policy.workspace.stats()["hits"] == 1


class _Stateful(Module):
    def __init__(self):
        super().__init__()
        self.lin = Linear(4, 3, np.random.default_rng(0))
        self.scale = Parameter(np.ones(3))
        self.register_buffer("running", np.zeros(3))


class TestCastModule:
    def test_casts_params_and_buffers_in_place(self):
        module = _Stateful()
        module.scale.grad = np.ones(3)
        returned = cast_module(module, "float32")
        assert returned is module
        for _, param in module.named_parameters():
            assert param.data.dtype == np.float32
            assert param.grad is None  # serving artifact, not training state
        for _, buf in module.named_buffers():
            assert buf.dtype == np.float32
        # set_buffer re-bound the attribute alongside the registry entry.
        assert module.running.dtype == np.float32

    def test_cast_is_value_preserving_roundtrip(self):
        module = _Stateful()
        before = {k: v.copy() for k, v in module.state_dict().items()}
        cast_module(module, "float32")
        cast_module(module, "float64")
        after = module.state_dict()
        for key, ref in before.items():
            assert np.allclose(after[key], ref, atol=1e-7), key

    def test_unsupported_cast_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported cast dtype"):
            cast_module(_Stateful(), "float16")

    def test_forward_after_cast_runs_in_float32(self):
        module = cast_module(_Stateful(), "float32")
        with use_dtype("float32"):
            out = module.lin(Tensor(np.ones((2, 4))))
        assert out.data.dtype == np.float32
