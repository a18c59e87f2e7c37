"""Context-local execution state: ``no_grad`` / ``use_backend`` across threads.

PR 5 replaced the process-global list-stacks behind ``is_grad_enabled`` and
``active_backend`` with ``contextvars.ContextVar`` state.  These tests pin
the semantics the concurrent serving runtime depends on:

* thread isolation — entering ``no_grad`` / ``use_backend`` in one thread
  never changes what another thread observes;
* fresh threads start from the defaults (grad enabled, fast backend) —
  they do *not* inherit the spawning thread's nesting;
* the public single-thread behaviour (nesting, exception unwind, reuse of
  one context-manager instance) is unchanged.

Plus the ``scatter_add`` op behind ``gather`` / ``__getitem__``
adjoints: bit-identical to ``np.add.at`` on every kernel leg (C scatter
loop, forced-off library, legacy), including strided index views,
negative indices, index arrays mutated between calls, and concurrent
callers.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    active_backend,
    gather,
    is_grad_enabled,
    no_grad,
    scatter_add,
    use_backend,
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


class TestBackendStateThreadIsolation:
    def test_fresh_thread_defaults_to_fast_backend(self):
        with use_backend("legacy"):
            assert active_backend() == "legacy"
            assert run_in_thread(active_backend) == "reduceat"
        assert active_backend() == "reduceat"

    def test_legacy_thread_does_not_reroute_others(self):
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with use_backend("legacy"):
                entered.set()
                release.wait(timeout=10)
                return active_backend()

        box = {}
        t = threading.Thread(target=lambda: box.update(r=worker()))
        t.start()
        assert entered.wait(timeout=10)
        assert active_backend() == "reduceat"
        release.set()
        t.join()
        assert box["r"] == "legacy"

    def test_single_instance_reentrant_and_nesting(self):
        guard = use_backend("legacy")
        with guard:
            with use_backend("reduceat"):
                assert active_backend() == "reduceat"
                with guard:
                    assert active_backend() == "legacy"
            assert active_backend() == "legacy"
        assert active_backend() == "reduceat"


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
