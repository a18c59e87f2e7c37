"""Differential tests: every conv/readout/fusion candidate under the
plan-backed kernels must match the ``np.add.at`` oracles (the ``legacy``
kernel leg) to <= 1e-9 in values and parameter/input gradients, and the
plan-aware call path (ctx / node plan) must be bit-identical to the
plain-index path.
"""

import numpy as np
import pytest

from repro.gnn import (
    CONV_TYPES,
    FUSION_CANDIDATES,
    READOUT_CANDIDATES,
    make_conv,
    make_fusion,
    make_readout,
)
from repro.graph import Batch
from repro.nn import Tensor
from tests.conftest import kernel_leg


def _run_conv(conv, h_data, batch, ctx=None):
    h = Tensor(h_data.copy(), requires_grad=True)
    out = conv(h, batch.edge_index, batch.edge_attr, ctx=ctx)
    out.sum().backward()
    grads = {name: p.grad.copy() for name, p in conv.named_parameters()
             if p.grad is not None}
    conv.zero_grad()
    return out.data.copy(), h.grad.copy(), grads


def _run_readout(readout, h_data, index, num_graphs):
    h = Tensor(h_data.copy(), requires_grad=True)
    out = readout(h, index, num_graphs)
    out.sum().backward()
    grads = {name: p.grad.copy() for name, p in readout.named_parameters()
             if p.grad is not None}
    readout.zero_grad()
    return out.data.copy(), h.grad.copy(), grads


def _assert_close(a, b, tol=1e-9):
    assert np.abs(a - b).max(initial=0.0) <= tol


class TestConvBackendParity:
    @pytest.mark.parametrize("conv_type", CONV_TYPES)
    def test_legacy_vs_reduceat(self, conv_type, batch, rng):
        conv = make_conv(conv_type, 16, np.random.default_rng(1))
        h_data = rng.normal(size=(batch.num_nodes, 16))
        out_new, hg_new, pg_new = _run_conv(conv, h_data, batch, ctx=batch)
        with kernel_leg("legacy"):
            out_ref, hg_ref, pg_ref = _run_conv(conv, h_data, batch)
        _assert_close(out_new, out_ref)
        _assert_close(hg_new, hg_ref)
        for name in pg_ref:
            _assert_close(pg_new[name], pg_ref[name])

    @pytest.mark.parametrize("conv_type", CONV_TYPES)
    def test_ctx_path_bit_identical(self, conv_type, batch, rng):
        conv = make_conv(conv_type, 16, np.random.default_rng(1))
        h_data = rng.normal(size=(batch.num_nodes, 16))
        with_ctx = _run_conv(conv, h_data, batch, ctx=batch)
        without = _run_conv(conv, h_data, batch, ctx=None)
        assert np.array_equal(with_ctx[0], without[0])
        assert np.array_equal(with_ctx[1], without[1])

    @pytest.mark.parametrize("conv_type", CONV_TYPES)
    def test_zero_edge_batch(self, conv_type, molecules, rng):
        from repro.graph import Graph

        lone = Graph(x=np.array([[1, 0]]), edge_index=np.zeros((2, 0)),
                     edge_attr=np.zeros((0, 2)))
        batch = Batch([lone, lone])
        conv = make_conv(conv_type, 8, np.random.default_rng(2))
        h_data = rng.normal(size=(2, 8))
        out_new = _run_conv(conv, h_data, batch, ctx=batch)
        with kernel_leg("legacy"):
            out_ref = _run_conv(conv, h_data, batch)
        _assert_close(out_new[0], out_ref[0])
        _assert_close(out_new[1], out_ref[1])


class TestReadoutBackendParity:
    @pytest.mark.parametrize("name", READOUT_CANDIDATES)
    def test_legacy_vs_reduceat(self, name, rng):
        readout = make_readout(name, 8, np.random.default_rng(3))
        ids = np.repeat(np.arange(3), [5, 1, 6])
        h_data = rng.normal(size=(12, 8))
        out_new, hg_new, pg_new = _run_readout(readout, h_data, ids, 3)
        with kernel_leg("legacy"):
            out_ref, hg_ref, pg_ref = _run_readout(readout, h_data, ids, 3)
        _assert_close(out_new, out_ref)
        _assert_close(hg_new, hg_ref)
        for pname in pg_ref:
            _assert_close(pg_new[pname], pg_ref[pname])

    @pytest.mark.parametrize("name", READOUT_CANDIDATES)
    def test_plan_path_bit_identical(self, name, rng):
        from repro.nn import SegmentPlan

        readout = make_readout(name, 8, np.random.default_rng(3))
        ids = np.repeat(np.arange(4), 3)
        h_data = rng.normal(size=(12, 8))
        plan = SegmentPlan(ids, 4)
        via_plan = _run_readout(readout, h_data, plan, 4)
        via_ids = _run_readout(readout, h_data, ids, 4)
        assert np.array_equal(via_plan[0], via_ids[0])
        assert np.array_equal(via_plan[1], via_ids[1])

    def test_sortpool_selects_topk_padded(self, rng):
        """Vectorized SortPool keeps the per-graph top-k contract: each
        graph's rows ordered by descending sort channel, zero-padded."""
        from repro.gnn.readout import SortPoolReadout
        from repro.nn import gather

        k, d = 3, 4
        readout = SortPoolReadout(d, rng, k=k)
        ids = np.array([0, 0, 0, 0, 1, 1])  # graph 1 has fewer than k nodes
        h_data = np.arange(24, dtype=np.float64).reshape(6, d)
        h_data[:, -1] = [3.0, 9.0, 1.0, 5.0, 2.0, 8.0]
        out = readout(Tensor(h_data), ids, 2)
        # Reconstruct the expected flat layout by hand.
        expect = np.zeros((2, k * d))
        expect[0] = h_data[[1, 3, 0]].reshape(-1)           # top-3 of graph 0
        expect[1, : 2 * d] = h_data[[5, 4]].reshape(-1)     # both nodes, padded
        manual = readout.proj(Tensor(expect)).data
        assert np.allclose(out.data, manual, atol=1e-12)


class TestFusionBackendParity:
    @pytest.mark.parametrize("name", FUSION_CANDIDATES)
    def test_legacy_vs_reduceat(self, name, rng):
        """Fusion candidates sit above the segment layer; the backend swap
        (and the stacked vectorized combine) must not move their values or
        gradients beyond 1e-9."""
        fusion = make_fusion(name, 3, 8, np.random.default_rng(4))
        layer_data = [rng.normal(size=(10, 8)) for _ in range(3)]

        def run():
            layers = [Tensor(d.copy(), requires_grad=True) for d in layer_data]
            out = fusion(layers)
            out.sum().backward()
            grads = [l.grad.copy() if l.grad is not None else None for l in layers]
            pgrads = {n: p.grad.copy() for n, p in fusion.named_parameters()
                      if p.grad is not None}
            fusion.zero_grad()
            return out.data.copy(), grads, pgrads

        out_new, lg_new, pg_new = run()
        with kernel_leg("legacy"):
            out_ref, lg_ref, pg_ref = run()
        _assert_close(out_new, out_ref)
        for a, b in zip(lg_new, lg_ref):
            assert (a is None) == (b is None)
            if a is not None:
                _assert_close(a, b)
        for pname in pg_ref:
            _assert_close(pg_new[pname], pg_ref[pname])
        # Gradient reaches at least the layers the candidate consumes.
        assert any(g is not None for g in lg_new), name
