"""Tests for the plan-backed segment kernel layer (repro.nn.segment).

Covers the SegmentPlan contract, differential testing of the plan-backed
ops against their ``np.add.at`` oracles (values *and* gradients,
including empty segments, ties in max, single-segment and zero-item
inputs), and the property that plan-aware and plain-index call paths are
bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    SegmentPlan,
    Tensor,
    as_plan,
    gather,
    gather_segments,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from tests.conftest import gradcheck
from tests.oracles import ORACLES

OPS = [segment_sum, segment_mean, segment_max, segment_softmax]


def _ids_cases():
    """Index arrays exercising every boundary the ISSUE names."""
    rng = np.random.default_rng(7)
    dense = rng.integers(0, 6, size=25)
    with_empty = dense.copy()
    with_empty[with_empty == 3] = 2  # segment 3 becomes empty
    return {
        "dense": (dense, 6),
        "empty_segment": (with_empty, 6),
        "trailing_empty": (np.zeros(4, dtype=np.int64), 3),
        "single_segment": (np.zeros(9, dtype=np.int64), 1),
        "zero_items": (np.zeros(0, dtype=np.int64), 4),
        "one_row_each": (np.arange(5, dtype=np.int64), 5),
    }


class TestSegmentPlan:
    def test_structure(self):
        ids = np.array([2, 0, 2, 1, 0, 2])
        plan = SegmentPlan(ids, 4)
        assert np.array_equal(plan.counts, [2, 1, 3, 0])
        assert np.array_equal(plan.offsets, [0, 2, 3, 6])
        assert np.array_equal(plan.segments, [0, 1, 2])
        assert np.array_equal(plan.starts, [0, 2, 3])
        assert not plan.full
        assert plan.num_items == 6
        # Stable sort: equal ids keep their original relative order.
        assert np.array_equal(plan.order, [1, 4, 3, 0, 2, 5])

    def test_inv_counts_precomputed(self):
        plan = SegmentPlan(np.array([0, 0, 2]), 3)
        assert np.allclose(plan.inv_counts, [0.5, 1.0, 1.0])

    def test_full_flag(self):
        assert SegmentPlan(np.array([0, 1]), 2).full
        assert not SegmentPlan(np.array([0, 0]), 2).full

    def test_out_of_range_ids_raise(self):
        with pytest.raises(ValueError):
            SegmentPlan(np.array([0, 5]), 3)
        with pytest.raises(ValueError):
            SegmentPlan(np.array([-1]), 3)

    def test_as_plan_passthrough_and_mismatch(self):
        plan = SegmentPlan(np.array([0, 1]), 2)
        assert as_plan(plan) is plan
        assert as_plan(plan, 2) is plan
        with pytest.raises(ValueError):
            as_plan(plan, 3)
        with pytest.raises(ValueError):
            as_plan(np.array([0, 1]))  # index array needs num_segments


class TestBackendParity:
    """The plan-backed ops must match their np.add.at oracles to <= 1e-9."""

    @pytest.mark.parametrize("case", sorted(_ids_cases()))
    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    def test_values_and_grads_match_legacy(self, op, case):
        ids, n = _ids_cases()[case]
        if op is segment_softmax and ids.size == 0:
            pytest.skip("softmax over zero rows is vacuous")
        rng = np.random.default_rng(1)
        data = rng.normal(size=(ids.size, 3))
        x_new = Tensor(data.copy(), requires_grad=True)
        x_ref = Tensor(data.copy(), requires_grad=True)
        out_new = op(x_new, ids, n)
        out_ref = ORACLES[op.__name__](x_ref, ids, n)
        assert np.abs(out_new.data - out_ref.data).max(initial=0.0) <= 1e-9
        seed = np.cos(np.arange(out_new.size, dtype=np.float64)).reshape(out_new.shape)
        out_new.backward(seed)
        out_ref.backward(seed)
        assert np.abs(x_new.grad - x_ref.grad).max(initial=0.0) <= 1e-9

    def test_max_tie_gradient_split_matches_legacy(self):
        ids = np.array([0, 0, 0, 1, 1])
        data = np.array([[2.0], [2.0], [1.0], [5.0], [5.0]])
        x_new = Tensor(data.copy(), requires_grad=True)
        x_ref = Tensor(data.copy(), requires_grad=True)
        segment_max(x_new, ids, 2).sum().backward()
        ORACLES["segment_max"](x_ref, ids, 2).sum().backward()
        assert np.array_equal(x_new.grad, x_ref.grad)
        # Ties split evenly inside each segment.
        assert np.allclose(x_new.grad.ravel(), [0.5, 0.5, 0.0, 0.5, 0.5])

    def test_empty_segments_yield_zeros(self):
        ids = np.array([0, 0, 3])
        x = Tensor(np.full((3, 2), -2.0))
        for op in (segment_sum, segment_mean, segment_max):
            out = op(x, ids, 5).data
            assert np.array_equal(out[[1, 2, 4]], np.zeros((3, 2))), op

    def test_softmax_normalizes_per_segment(self):
        rng = np.random.default_rng(3)
        ids = np.repeat(np.arange(4), 5)
        attn = segment_softmax(Tensor(rng.normal(size=20)), ids, 4)
        sums = segment_sum(attn, ids, 4).data
        assert np.allclose(sums, 1.0)

    def test_softmax_stable_for_large_scores(self):
        out = segment_softmax(Tensor(np.array([1000.0, 1000.0, -1000.0])),
                              np.array([0, 0, 1]), 2)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data[:2], 0.5)

    def test_max_long_segment_reduceat_path(self):
        """Segments longer than the vertical-max rank limit take the
        reduceat path; parity with legacy must hold there too."""
        rng = np.random.default_rng(11)
        ids = np.concatenate([np.zeros(200, dtype=np.int64),
                              np.ones(3, dtype=np.int64)])
        data = rng.normal(size=(203, 2))
        x_new = Tensor(data.copy(), requires_grad=True)
        x_ref = Tensor(data.copy(), requires_grad=True)
        out_new = segment_max(x_new, ids, 3)
        out_ref = ORACLES["segment_max"](x_ref, ids, 3)
        assert np.abs(out_new.data - out_ref.data).max() <= 1e-9
        out_new.sum().backward()
        out_ref.sum().backward()
        assert np.abs(x_new.grad - x_ref.grad).max() <= 1e-9

    def test_gather_segments_matches_plain_gather(self):
        """Forward is the same fancy index; the scatter-add adjoint must be
        bit-identical to gather's np.add.at accumulation."""
        rng = np.random.default_rng(9)
        ids = rng.integers(0, 5, size=17)
        data = rng.normal(size=(5, 3))
        x_new = Tensor(data.copy(), requires_grad=True)
        x_ref = Tensor(data.copy(), requires_grad=True)
        out_new = gather_segments(x_new, ids, 5)
        out_ref = gather(x_ref, ids)
        assert np.array_equal(out_new.data, out_ref.data)
        seed = rng.normal(size=out_new.shape)
        out_new.backward(seed)
        out_ref.backward(seed)
        assert np.array_equal(x_new.grad, x_ref.grad)

    def test_gather_segments_legacy_backend_routes_to_gather(self):
        ids = np.array([1, 0, 1])
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = ORACLES["gather_segments"](x, ids, 3)
        out.sum().backward()
        assert np.array_equal(out.data, x.data[ids])
        assert np.array_equal(x.grad, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))


class TestPlanVsIndexBitIdentical:
    """Plan-aware and plain-index call paths must agree bit-for-bit."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_property(self, seed, num_segments, num_items):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, num_segments, size=num_items)
        data = rng.normal(size=(num_items, 4))
        plan = SegmentPlan(ids, num_segments)
        for op in OPS:
            if op is segment_softmax and num_items == 0:
                continue
            x_a = Tensor(data.copy(), requires_grad=True)
            x_b = Tensor(data.copy(), requires_grad=True)
            via_plan = op(x_a, plan)
            via_ids = op(x_b, ids, num_segments)
            assert np.array_equal(via_plan.data, via_ids.data), op
            via_plan.sum().backward()
            via_ids.sum().backward()
            assert np.array_equal(x_a.grad, x_b.grad), op


class TestGradcheck:
    """Finite-difference checks of the reduceat adjoints themselves."""

    @pytest.mark.parametrize("op", [segment_sum, segment_mean],
                             ids=lambda f: f.__name__)
    def test_linear_ops(self, op, rng):
        ids = rng.integers(0, 4, size=12)
        plan = SegmentPlan(ids, 5)  # segment 4 may be empty
        gradcheck(lambda x: op(x, plan).sum(), rng.normal(size=(12, 3)))

    def test_segment_max(self, rng):
        ids = rng.integers(0, 3, size=10)
        # Well-separated values: the max is locally smooth.
        data = np.linspace(0.0, 9.0, 30).reshape(10, 3) ** 1.1
        gradcheck(lambda x: segment_max(x, ids, 3).sum(), data)

    def test_segment_softmax(self, rng):
        ids = rng.integers(0, 3, size=10)
        gradcheck(
            lambda x: (segment_softmax(x, ids, 3) * Tensor(np.arange(10.0))).sum(),
            rng.normal(size=10),
        )
