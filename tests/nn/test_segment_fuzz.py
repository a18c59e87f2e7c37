"""Property/fuzz tests for ``SegmentPlan`` edge cases.

`tests/nn/test_segment.py` covers a fixed set of boundary index arrays;
here hypothesis *generates* adversarial segment layouts — empty segments
interleaved with large ones, zero-length index arrays, single-segment
batches, non-contiguous segment ids with leading/trailing gaps — and
asserts, for every plan-backed op:

* values and input gradients match the ``np.add.at`` oracles
  (``tests/oracles.py``) bit-for-bit (sum/mean/max/gather) or to 1e-12 (softmax, whose
  normalizer arithmetic is shared but exponent-order-sensitive);
* the plan's structural invariants hold (counts/offsets/indptr are
  consistent, the stable-sort permutation is a permutation);
* finite-difference gradcheck passes on the exact generated layout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    SegmentPlan,
    Tensor,
    gather_segments,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
    use_dtype,
)
from tests.conftest import gradcheck
from tests.oracles import ORACLES

#: Ops over per-item rows, claimed bit-identical to their oracles.
EXACT_OPS = [segment_sum, segment_mean, segment_max]


@st.composite
def segment_layouts(draw):
    """A ``(segment_ids, num_segments)`` pair with adversarial structure.

    Builds the layout from per-segment counts (not uniform ids), so empty
    segments interleaved with large ones — the case uniform sampling
    almost never produces — are common.  The row order is then permuted so
    segments are non-contiguous in the index array.
    """
    num_segments = draw(st.integers(1, 9))
    counts = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 3), st.integers(20, 40)),
        min_size=num_segments, max_size=num_segments))
    ids = np.repeat(np.arange(num_segments), counts)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    rng.shuffle(ids)
    return ids.astype(np.int64), num_segments, seed


def _run(op, data, index, num_segments):
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x, index, num_segments)
    seed = np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape)
    out.backward(seed)
    return out.data.copy(), x.grad.copy()


class TestFuzzBackendParity:
    @given(segment_layouts())
    @settings(max_examples=60, deadline=None)
    def test_exact_ops_bit_identical_to_legacy(self, layout):
        ids, n, seed = layout
        data = np.random.default_rng(seed).normal(size=(ids.size, 3))
        plan = SegmentPlan(ids, n)
        for op in EXACT_OPS:
            out_new, grad_new = _run(op, data, plan, None)
            out_ref, grad_ref = _run(ORACLES[op.__name__], data, ids, n)
            assert np.array_equal(out_new, out_ref), op.__name__
            assert np.array_equal(grad_new, grad_ref), op.__name__

    @given(segment_layouts())
    @settings(max_examples=60, deadline=None)
    def test_gather_segments_bit_identical_to_legacy(self, layout):
        """gather broadcasts per-*segment* rows to items; its adjoint is a
        scatter-add that must match np.add.at exactly."""
        ids, n, seed = layout
        data = np.random.default_rng(seed).normal(size=(n, 3))
        out_new, grad_new = _run(gather_segments, data, SegmentPlan(ids, n), None)
        out_ref, grad_ref = _run(ORACLES["gather_segments"], data, ids, n)
        assert np.array_equal(out_new, out_ref)
        assert np.array_equal(grad_new, grad_ref)

    @given(segment_layouts())
    @settings(max_examples=60, deadline=None)
    def test_softmax_matches_legacy(self, layout):
        ids, n, seed = layout
        if ids.size == 0:
            return  # softmax over zero rows is vacuous
        data = np.random.default_rng(seed).normal(size=ids.size)
        out_new, grad_new = _run(segment_softmax, data, SegmentPlan(ids, n), None)
        out_ref, grad_ref = _run(ORACLES["segment_softmax"], data, ids, n)
        assert np.abs(out_new - out_ref).max(initial=0.0) <= 1e-12
        assert np.abs(grad_new - grad_ref).max(initial=0.0) <= 1e-12

    @given(segment_layouts())
    @settings(max_examples=60, deadline=None)
    def test_plan_structural_invariants(self, layout):
        ids, n, _ = layout
        plan = SegmentPlan(ids, n)
        assert np.array_equal(np.sort(plan.order), np.arange(ids.size))
        assert np.array_equal(plan.counts, np.bincount(ids, minlength=n))
        assert plan.counts.sum() == plan.num_items == ids.size
        assert np.array_equal(plan.indptr, np.concatenate([[0], np.cumsum(plan.counts)]))
        assert np.array_equal(plan.offsets, plan.indptr[:-1])
        assert np.array_equal(plan.segments, np.flatnonzero(plan.counts))
        assert plan.full == (plan.segments.size == n)
        # Sorted ids are non-decreasing and stable within segments.
        sorted_ids = ids[plan.order]
        assert np.all(np.diff(sorted_ids) >= 0)
        for s in plan.segments:
            rows = plan.order[plan.offsets[s]:plan.indptr[s + 1]]
            assert np.all(np.diff(rows) > 0)  # original order preserved

    @given(segment_layouts())
    @settings(max_examples=15, deadline=None)
    def test_gradcheck_on_generated_layouts(self, layout):
        ids, n, seed = layout
        if ids.size == 0:
            return  # finite differencing over zero inputs is vacuous
        rng = np.random.default_rng(seed)
        # Truncate to keep the O(size) finite-difference loop fast; the
        # truncated prefix keeps the layout's gaps and interleaving.
        data = rng.normal(size=(min(ids.size, 12), 2))
        small_plan = SegmentPlan(ids[:data.shape[0]], n)
        for op in (segment_sum, segment_mean):
            gradcheck(lambda x, op=op: op(x, small_plan).sum(), data)


class TestFuzzFloat32Policy:
    """The same adversarial layouts under the serving dtype (PR 7).

    Float32 kernels cannot be bit-identical to the float64 reference, so
    the contract is toleranced agreement with the float64 values (the
    accumulation order is unchanged, only the precision drops).
    """

    #: |f32 - f64| bound for ~Normal(0,1) rows over <=200-item segments:
    #: float32 eps is 1.2e-7; sums of tens of unit-scale terms stay well
    #: under 1e-4 absolute error.
    TOL = 1e-4

    @given(segment_layouts())
    @settings(max_examples=25, deadline=None)
    def test_float32_tracks_float64_within_tolerance(self, layout):
        ids, n, seed = layout
        data = np.random.default_rng(seed).normal(size=(ids.size, 3))
        plan = SegmentPlan(ids, n)
        for op in EXACT_OPS:
            with use_dtype("float32"):
                out32, grad32 = _run(op, data, plan, None)
            out64, grad64 = _run(op, data, plan, None)
            assert out32.dtype == np.float32, op.__name__
            assert grad32.dtype == np.float32, op.__name__
            assert np.abs(out32 - out64).max(initial=0.0) <= self.TOL, op.__name__
            assert np.abs(grad32 - grad64).max(initial=0.0) <= self.TOL, op.__name__

    @given(segment_layouts())
    @settings(max_examples=15, deadline=None)
    def test_float32_softmax_stays_normalized(self, layout):
        ids, n, seed = layout
        if ids.size == 0:
            return
        data = np.random.default_rng(seed).normal(size=ids.size)
        with use_dtype("float32"):
            out = segment_softmax(Tensor(data), SegmentPlan(ids, n), None)
            assert out.data.dtype == np.float32
            sums = np.zeros(n, dtype=np.float64)
            np.add.at(sums, ids, out.data.astype(np.float64))
        occupied = np.bincount(ids, minlength=n) > 0
        assert np.allclose(sums[occupied], 1.0, atol=1e-5)


class TestNamedEdgeCases:
    """The ISSUE's named boundaries, pinned explicitly (not just fuzzed)."""

    CASES = {
        "empty_interleaved_with_large": (
            np.repeat(np.arange(5), [30, 0, 1, 0, 25]), 5),
        "zero_length_index": (np.zeros(0, dtype=np.int64), 6),
        "single_segment": (np.zeros(40, dtype=np.int64), 1),
        "noncontiguous_ids_with_gaps": (np.array([7, 2, 7, 0, 2, 7, 9]), 11),
        "all_segments_empty": (np.zeros(0, dtype=np.int64), 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parity_and_shapes(self, case):
        ids, n = self.CASES[case]
        ids = np.asarray(ids, dtype=np.int64)
        rng = np.random.default_rng(5)
        data = rng.normal(size=(ids.size, 4))
        plan = SegmentPlan(ids, n)
        for op in EXACT_OPS:
            out_new, grad_new = _run(op, data, plan, None)
            out_ref, grad_ref = _run(ORACLES[op.__name__], data, ids, n)
            assert out_new.shape == out_ref.shape, op.__name__
            assert np.array_equal(out_new, out_ref), op.__name__
            assert np.array_equal(grad_new, grad_ref), op.__name__
        seg_data = rng.normal(size=(n, 4))
        out_new, grad_new = _run(gather_segments, seg_data, plan, None)
        out_ref, grad_ref = _run(ORACLES["gather_segments"], seg_data, ids, n)
        assert np.array_equal(out_new, out_ref)
        assert np.array_equal(grad_new, grad_ref)

    def test_empty_interleaved_gradcheck(self):
        ids, n = self.CASES["empty_interleaved_with_large"]
        small = np.asarray(ids[:10], dtype=np.int64)
        plan = SegmentPlan(small, n)
        rng = np.random.default_rng(2)
        for op in (segment_sum, segment_mean):
            gradcheck(lambda x, op=op: op(x, plan).sum(),
                      rng.normal(size=(10, 2)))
        gradcheck(
            lambda x: (segment_softmax(x, plan) * Tensor(np.arange(10.0))).sum(),
            rng.normal(size=10))

    def test_single_segment_softmax_normalizes(self):
        ids = np.zeros(40, dtype=np.int64)
        out = segment_softmax(Tensor(np.linspace(-3, 3, 40)), ids, 1)
        assert np.isclose(out.data.sum(), 1.0)

    def test_zero_length_ops_produce_zero_rows(self):
        ids = np.zeros(0, dtype=np.int64)
        x = Tensor(np.zeros((0, 3)), requires_grad=True)
        for op in (segment_sum, segment_mean, segment_max):
            out = op(x, ids, 4)
            assert out.shape == (4, 3)
            assert np.array_equal(out.data, np.zeros((4, 3)))
        out = gather_segments(Tensor(np.zeros((4, 3))), ids, 4)
        assert out.shape == (0, 3)
