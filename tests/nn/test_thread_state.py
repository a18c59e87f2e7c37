"""Context-local execution state: ``no_grad`` and ``inference`` across threads.

``is_grad_enabled`` / ``is_inference`` read ``contextvars.ContextVar``
state rather than a process-global stack.  These tests pin the semantics the concurrent
serving runtime depends on:

* thread isolation — entering ``no_grad`` or ``inference`` in one thread
  never changes what another thread observes (grad mode, and for
  ``inference`` the Dropout / BatchNorm behaviour of a shared module);
* ``inference`` gives eval behaviour without writing ``Module.training``;
* fresh threads start from the default (grad enabled) — they do *not*
  inherit the spawning thread's nesting;
* the public single-thread behaviour (nesting, exception unwind, reuse of
  one context-manager instance) is unchanged.

Plus the ``scatter_add`` op behind ``gather`` / ``__getitem__``
adjoints: bit-identical to ``np.add.at`` on every kernel leg (C scatter
loop, forced-off library, the oracle), including strided index views,
negative indices, index arrays mutated between calls, and concurrent
callers.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    Dropout,
    StochNorm1d,
    Tensor,
    gather,
    inference,
    is_grad_enabled,
    is_inference,
    no_grad,
    scatter_add,
)
from tests.conftest import KERNEL_LEGS, kernel_leg


def run_in_thread(fn):
    """Run ``fn`` in a fresh thread, propagating exceptions and the result."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as err:  # pragma: no cover - assertion carrier
            box["error"] = err

    t = threading.Thread(target=target)
    t.start()
    t.join()
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestGradStateThreadIsolation:
    def test_fresh_thread_defaults_to_grad_enabled(self):
        with no_grad():
            assert not is_grad_enabled()
            assert run_in_thread(is_grad_enabled)  # not inherited
            assert not is_grad_enabled()

    def test_no_grad_in_thread_does_not_leak_out(self):
        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def worker():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                observed["inside"] = is_grad_enabled()

        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(timeout=10)
        # Main thread: unaffected while the worker sits inside no_grad.
        assert is_grad_enabled()
        x = Tensor(np.ones(3), requires_grad=True)
        assert (x * 2).requires_grad
        release.set()
        t.join()
        assert observed["inside"] is False

    def test_tensors_built_in_no_grad_thread_do_not_track(self):
        def worker():
            with no_grad():
                x = Tensor(np.ones(3), requires_grad=True)
                return x.requires_grad, (x * 2).requires_grad

        assert run_in_thread(worker) == (False, False)

    def test_many_threads_compose_independently(self):
        barrier = threading.Barrier(8, timeout=10)
        failures = []

        def worker(enable):
            try:
                if enable:
                    barrier.wait()
                    if not is_grad_enabled():
                        failures.append("enabled thread saw disabled state")
                else:
                    with no_grad():
                        barrier.wait()
                        if is_grad_enabled():
                            failures.append("no_grad thread saw enabled state")
            except BaseException as err:  # pragma: no cover
                failures.append(repr(err))

        threads = [threading.Thread(target=worker, args=(i % 2 == 0,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_nesting_and_exception_unwind(self):
        assert is_grad_enabled()
        with pytest.raises(RuntimeError):
            with no_grad():
                assert not is_grad_enabled()
                with no_grad():
                    assert not is_grad_enabled()
                    raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_single_instance_reentrant(self):
        guard = no_grad()
        with guard:
            with guard:
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestInferenceScope:
    @staticmethod
    def _bn():
        bn = BatchNorm1d(3, momentum=0.5)
        bn.set_buffer("running_mean", np.array([1.0, 2.0, 3.0]))
        bn.set_buffer("running_var", np.array([4.0, 4.0, 4.0]))
        return bn

    def test_eval_behaviour_without_writing_training(self):
        x = Tensor(np.random.default_rng(0).normal(size=(6, 3)),
                   requires_grad=True)
        bn, sn = self._bn(), StochNorm1d(3, p=0.5)
        drop = Dropout(0.5, np.random.default_rng(0))
        reference = self._bn().eval()
        with inference():
            assert not is_grad_enabled() and is_inference()
            out = bn(x)
            assert np.array_equal(out.data, reference(x).data)
            assert not out.requires_grad
            assert np.array_equal(drop(x).data, x.data)
            assert np.array_equal(sn(x).data, StochNorm1d(3).eval()(x).data)
        assert bn.training and drop.training and sn.training
        assert np.array_equal(bn.running_mean, [1.0, 2.0, 3.0])
        assert is_grad_enabled() and not is_inference()

    def test_inference_in_thread_does_not_leak_out(self):
        bn = self._bn()
        drop = Dropout(0.5, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(6, 3)))
        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def worker():
            with inference():
                entered.set()
                release.wait(timeout=10)
                observed["inside"] = (is_grad_enabled(), is_inference(),
                                      bool(np.array_equal(drop(x).data, x.data)))

        t = threading.Thread(target=worker)
        t.start()
        assert entered.wait(timeout=10)
        # Main thread: the shared modules still train while the worker
        # sits inside inference().
        assert is_grad_enabled() and not is_inference()
        assert not np.array_equal(drop(x).data, x.data)
        bn(x)
        assert not np.array_equal(bn.running_mean, [1.0, 2.0, 3.0])
        release.set()
        t.join()
        assert observed["inside"] == (False, True, True)

    def test_fresh_thread_defaults_outside_inference(self):
        with inference():
            assert run_in_thread(lambda: (is_grad_enabled(), is_inference())) \
                == (True, False)

    def test_nesting_reentry_and_exception_unwind(self):
        scope = inference()
        with pytest.raises(RuntimeError):
            with scope:
                with no_grad():
                    with scope:
                        assert is_inference() and not is_grad_enabled()
                    assert is_inference() and not is_grad_enabled()
                    raise RuntimeError("boom")
        assert is_grad_enabled() and not is_inference()


class TestScatterAdd:
    @staticmethod
    def _add_at(g, ids, num_rows):
        expected = np.zeros((num_rows,) + g.shape[1:])
        np.add.at(expected, ids, g)
        return expected

    @pytest.mark.parametrize("leg", KERNEL_LEGS)
    def test_scatter_add_matches_add_at_bitwise(self, rng, leg):
        ids = rng.integers(0, 50, size=2000)
        g = rng.normal(size=(2000, 16))
        expected = self._add_at(g, ids, 50)
        with kernel_leg(leg):
            for _ in range(3):  # a repeated index scatters the same bits
                assert np.array_equal(scatter_add(g, ids, 50), expected)

    @pytest.mark.parametrize("leg", KERNEL_LEGS)
    def test_strided_index_view_matches_add_at(self, rng, leg):
        base = np.stack([rng.integers(0, 30, size=400)] * 2, axis=1)
        g = rng.normal(size=(400, 8))
        expected = self._add_at(g, base[:, 0], 30)
        with kernel_leg(leg):
            # a *fresh view object* per call, like batch.x[:, 0]
            for _ in range(3):
                assert np.array_equal(scatter_add(g, base[:, 0], 30),
                                      expected)

    @pytest.mark.parametrize("leg", KERNEL_LEGS)
    def test_index_mutated_in_place_is_honoured(self, rng, leg):
        # Nothing is cached by index storage any more: rewriting an index
        # array in place between calls scatters into the new buckets.
        ids = np.arange(300) % 10
        g = rng.normal(size=(300, 2))
        with kernel_leg(leg):
            assert np.array_equal(scatter_add(g, ids, 10),
                                  self._add_at(g, ids, 10))
            ids[:] = ids[::-1].copy()
            assert np.array_equal(scatter_add(g, ids, 10),
                                  self._add_at(g, ids, 10))

    @pytest.mark.parametrize("leg", KERNEL_LEGS)
    def test_gather_backward_matches_add_at(self, rng, leg):
        weight = rng.normal(size=(40, 8))
        ids = rng.integers(0, 40, size=600)
        g = rng.normal(size=(600, 8))
        x = Tensor(weight, requires_grad=True)
        with kernel_leg(leg):
            gather(x, ids).backward(g)
        assert np.array_equal(x.grad, self._add_at(g, ids, 40))

    def test_getitem_backward_parity_and_fallbacks(self, rng):
        data = rng.normal(size=(25, 4))
        # integer-array, negative-index, slice and bool-mask paths
        indices = (rng.integers(0, 25, size=90),
                   np.array([-1, 3, -5, 3]),
                   slice(2, 11),
                   np.arange(25) % 3 == 0)
        grads = {}
        for leg in KERNEL_LEGS:
            with kernel_leg(leg):
                for index in indices:
                    x = Tensor(data, requires_grad=True)
                    x[index].backward(np.ones_like(x.data[index]))
                    grads.setdefault(leg, []).append(x.grad)
        for leg in KERNEL_LEGS[1:]:
            for a, b in zip(grads["legacy"], grads[leg]):
                assert np.array_equal(a, b), leg

    def test_concurrent_scatter_adds_are_consistent(self, rng):
        ids = rng.integers(0, 40, size=3000)
        g = rng.normal(size=(3000, 8))
        expected = np.zeros((40, 8))
        np.add.at(expected, ids, g)
        failures = []
        barrier = threading.Barrier(6, timeout=10)

        def worker():
            try:
                barrier.wait()
                for _ in range(10):
                    if not np.array_equal(scatter_add(g, ids, 40), expected):
                        failures.append("mismatch")
            except BaseException as err:  # pragma: no cover
                failures.append(repr(err))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
