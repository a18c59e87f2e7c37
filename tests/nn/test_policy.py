"""Execution-policy semantics: dtype selection, thread isolation, casts.

PR 7's inference memory plane hangs off one ContextVar
(:data:`repro.nn.policy._ACTIVE_POLICY`); these tests pin the contracts
the serving stack builds on:

* the default policy is float64 and carries nothing but its dtype —
  bit-identical to the pre-policy stack, so training and the
  differential suite are untouched;
* ``use_dtype`` policies are re-entrant context managers, restore on
  exception unwind, and are thread-isolated exactly like ``no_grad``
  (fresh threads get the defaults; one policy *instance* may be entered
  concurrently from many threads);
* :func:`cast_module` converts a module's floating state once, in place.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.nn import (
    ExecutionPolicy,
    Linear,
    Module,
    Parameter,
    Tensor,
    active_dtype,
    active_policy,
    cast_module,
    use_dtype,
)
from tests.nn.test_thread_state import run_in_thread


class TestExecutionPolicy:
    def test_default_policy_is_float64_without_workspace(self):
        assert active_dtype() == np.float64
        assert active_policy().dtype == "float64"
        assert [f.name for f in dataclasses.fields(active_policy())] == ["dtype"]

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


class TestPolicyThreadIsolation:
    def test_fresh_thread_gets_default_policy(self):
        with use_dtype("float32"):
            assert active_dtype() == np.float32
            # Spawned threads mirror no_grad: defaults, not
            # the spawner's nesting.
            assert run_in_thread(active_dtype) == np.float64
            assert run_in_thread(active_policy).dtype == "float64"
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
        policy = use_dtype("float32")
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
