"""Registry-driven gradcheck sweep: the whole op database, every backend.

``repro.nn.ops.OP_REGISTRY`` declares each op once — implementations per
backend, adjoint, tolerances and deterministic sample inputs.  This suite
is the registry's consumer contract:

* **completeness pin** — the registered op and backend sets are asserted
  literally, so adding an op without samples/adjoint (or losing one) is
  a test failure here and a REP008 finding, not silent shrinkage.  The
  literal names double as the REP005 suite-coverage witnesses:
  segment_sum, segment_mean, segment_max, segment_softmax,
  gather_segments, scatter_add, gather, exp, log, sqrt, tanh, sigmoid,
  relu, abs, matmul, concat, lstm_scan, gin_message, linear, batch_norm.
* **numeric-vs-analytic gradcheck** over every differentiable op ×
  kernel leg × sample input (float64, the policy default), for the
  payload and for every argument a sample marks in ``grad_args``
  (weights, embedding tables, initial LSTM states).  The legs
  (``tests.conftest.KERNEL_LEGS``) are the ``legacy`` reference, the
  ``reduceat`` backend with the C kernel library forced off, and — where
  a C compiler exists — the same backend running the C kernels
  (``compiled``);
* **float32 policy leg** — the same samples under ``use_dtype`` must
  track the float64 run within each op's declared ``float32_tol``;
* **cross-backend parity on the samples** within each op's declared
  ``tolerance`` (0.0 = bit-identical), forward and gradient;
* **fallback chain** — the ``reduceat`` backend must resolve to its own
  implementation where it registered one and to the ``legacy``
  implementation everywhere else;
* a small **hypothesis leg** replaying adversarial segment layouts
  through the registry dispatchers on every kernel leg.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, use_backend, use_dtype
from repro.nn.ops import OP_REGISTRY
from tests.conftest import KERNEL_LEGS, gradcheck, kernel_leg, sample_tensors

pytestmark = pytest.mark.gradcheck_sweep

#: The registered database, pinned literally (see module docstring).
EXPECTED_OPS = {
    "segment_sum", "segment_mean", "segment_max", "segment_softmax",
    "gather_segments", "scatter_add", "gather",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs",
    "matmul", "concat", "lstm_scan", "gin_message", "linear", "batch_norm",
}

BACKENDS = KERNEL_LEGS
DIFFERENTIABLE = sorted(name for name in OP_REGISTRY.ops()
                        if OP_REGISTRY.get(name).differentiable)


class TestRegistryCompleteness:
    def test_op_database_is_pinned(self):
        assert set(OP_REGISTRY.ops()) == EXPECTED_OPS

    def test_backend_sets(self):
        # One reference and one fast path, with or without a C compiler:
        # the C kernels live inside the reduceat impls.
        assert OP_REGISTRY.backends() == ("legacy", "reduceat")
        assert OP_REGISTRY.declared_backends() == ("legacy", "reduceat")

    def test_every_entry_is_complete(self):
        for name in OP_REGISTRY.ops():
            entry = OP_REGISTRY.get(name)
            assert entry.adjoint, name
            assert callable(entry.samples), name
            assert len(entry.impls) >= 2 or entry.waiver, name
            for dtype in (np.float64, np.float32):
                samples = entry.samples(dtype)
                assert samples, (name, dtype)
                for sample in samples:
                    assert sample.data.dtype == dtype, (name, sample.label)

    def test_samples_are_deterministic(self):
        for name in OP_REGISTRY.ops():
            entry = OP_REGISTRY.get(name)
            first, second = entry.samples(np.float64), entry.samples(np.float64)
            assert [s.label for s in first] == [s.label for s in second]
            for a, b in zip(first, second):
                assert np.array_equal(a.data, b.data), (name, a.label)


def _run_sample(op_name, backend, sample, dtype_ctx=None):
    """Forward + backward of one sample; returns (out, grads) arrays,
    ``grads`` holding the payload's gradient then each grad arg's."""
    dispatch = OP_REGISTRY.dispatcher(op_name)
    with kernel_leg(backend), (dtype_ctx or contextlib.nullcontext)():
        x, args, tracked = sample_tensors(sample)
        out = dispatch(x, *args)
        out.backward(np.ones_like(out.data))
    return out.data.copy(), [t.grad.copy() for t in tracked]


def _gradcheck_sample(dispatch, sample, tol):
    """Numeric-vs-analytic gradients of the payload and every grad arg,
    each perturbed with the other operands held fixed."""
    positions = (None,) + sample.grad_args
    for position in positions:
        base = sample.data if position is None else sample.args[position]
        if base.size == 0:
            continue  # finite differencing over zero inputs is vacuous

        def fn(t, position=position):
            args = list(sample.args)
            if position is None:
                return dispatch(t, *args).sum()
            args[position] = t
            return dispatch(Tensor(sample.data), *args).sum()

        gradcheck(fn, base.copy(), tol=tol)


class TestGradcheckSweep:
    """Numeric-vs-analytic gradients for the whole database."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op_name", DIFFERENTIABLE)
    def test_float64_gradcheck(self, op_name, backend):
        entry = OP_REGISTRY.get(op_name)
        dispatch = OP_REGISTRY.dispatcher(op_name)
        for sample in entry.samples(np.float64):
            with kernel_leg(backend):
                _gradcheck_sample(dispatch, sample, entry.gradcheck_tol)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op_name", DIFFERENTIABLE)
    def test_float32_tracks_float64(self, op_name, backend):
        entry = OP_REGISTRY.get(op_name)
        samples64 = entry.samples(np.float64)
        samples32 = entry.samples(np.float32)
        assert len(samples64) == len(samples32)
        for s64, s32 in zip(samples64, samples32):
            out64, grad64 = _run_sample(op_name, backend, s64)
            out32, grad32 = _run_sample(
                op_name, backend, s32,
                dtype_ctx=lambda: use_dtype("float32"))
            assert out32.dtype == np.float32, (op_name, s32.label)
            tol = entry.float32_tol
            assert np.abs(out32 - out64).max(initial=0.0) <= tol, \
                (op_name, backend, s32.label)
            for g32, g64 in zip(grad32, grad64):
                assert g32.dtype == np.float32, (op_name, s32.label)
                assert np.abs(g32 - g64).max(initial=0.0) <= tol, \
                    (op_name, backend, s32.label)


class TestBackendParityOnSamples:
    """Every backend against the reference, within declared tolerance."""

    @pytest.mark.parametrize("op_name", DIFFERENTIABLE)
    def test_differentiable_ops(self, op_name):
        entry = OP_REGISTRY.get(op_name)
        reference = BACKENDS[0]
        for sample in entry.samples(np.float64):
            out_ref, grad_ref = _run_sample(op_name, reference, sample)
            for backend in BACKENDS[1:]:
                out, grad = _run_sample(op_name, backend, sample)
                key = (op_name, backend, sample.label)
                assert len(grad) == len(grad_ref) == \
                    1 + len(sample.grad_args), key
                for got, want in zip([out] + grad, [out_ref] + grad_ref):
                    if entry.tolerance == 0.0:
                        assert np.array_equal(got, want), key
                    else:
                        assert np.abs(got - want).max(initial=0.0) \
                            <= entry.tolerance, key

    def test_scatter_add_forward_parity(self):
        entry = OP_REGISTRY.get("scatter_add")
        assert not entry.differentiable
        dispatch = OP_REGISTRY.dispatcher("scatter_add")
        for sample in entry.samples(np.float64):
            results = {}
            for backend in BACKENDS:
                with kernel_leg(backend):
                    # Call twice with the *same* index array object: a
                    # repeated index must scatter the same bits again.
                    first = dispatch(sample.data, *sample.args)
                    second = dispatch(sample.data, *sample.args)
                assert np.array_equal(first, second), (backend, sample.label)
                results[backend] = first
            reference = results[BACKENDS[0]]
            for backend in BACKENDS[1:]:
                assert np.array_equal(results[backend], reference), \
                    sample.label


class TestFallbackChain:
    def test_reduceat_resolves_direct_impl_or_legacy(self):
        for op_name in OP_REGISTRY.ops():
            entry = OP_REGISTRY.get(op_name)
            resolved = OP_REGISTRY.resolve(op_name, "reduceat")
            if "reduceat" in entry.impls:
                assert resolved is entry.impls["reduceat"], op_name
            else:
                assert resolved is entry.impls["legacy"], op_name

    def test_reduceat_backend_runs_the_fallback(self):
        # gather has no reduceat impl: the reduceat backend must run the
        # legacy one, forward and adjoint.
        assert "reduceat" not in OP_REGISTRY.get("gather").impls
        sample = OP_REGISTRY.get("gather").samples(np.float64)[0]
        out_ref, grad_ref = _run_sample("gather", "legacy", sample)
        with use_backend("reduceat"):
            x = Tensor(sample.data.copy(), requires_grad=True)
            out = OP_REGISTRY.dispatcher("gather")(x, *sample.args)
            out.backward(np.ones_like(out.data))
        assert np.array_equal(out.data, out_ref)
        assert np.array_equal(x.grad, grad_ref[0])


@st.composite
def small_layouts(draw):
    """Adversarial ``(ids, num_segments, seed)`` kept small enough for
    the O(size) finite-difference loop."""
    num_segments = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 4),
                           min_size=num_segments, max_size=num_segments))
    ids = np.repeat(np.arange(num_segments), counts)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    np.random.default_rng(seed).shuffle(ids)
    return ids.astype(np.int64), num_segments, seed


class TestFuzzedLayoutsThroughRegistry:
    @given(small_layouts())
    @settings(max_examples=10, deadline=None)
    def test_segment_ops_gradcheck_on_every_backend(self, layout):
        ids, n, seed = layout
        if ids.size == 0:
            return
        data = np.random.default_rng(seed).normal(size=(ids.size, 2))
        for op_name in ("segment_sum", "segment_mean", "segment_max"):
            dispatch = OP_REGISTRY.dispatcher(op_name)
            tol = OP_REGISTRY.get(op_name).gradcheck_tol
            for backend in BACKENDS:
                with kernel_leg(backend):
                    gradcheck(lambda x: dispatch(x, ids, n).sum(),
                              data, tol=tol)
