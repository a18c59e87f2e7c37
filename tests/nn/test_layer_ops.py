"""One tape node per training layer, bit-identical to the old compositions.

``gin_message`` (GIN's gather + bond embeddings + add + ``segment_sum``),
``lstm_scan`` (the per-gate LSTM step loop), ``linear`` and
``batch_norm`` each run as a single tape node with a hand-written
adjoint.  Against the tape compositions they replaced
(:mod:`tests.oracles`), on every kernel leg, these tests compare the
forward output and every gradient — inputs, parameters, embedding
tables, initial LSTM states — at tolerance 0.0 (``tobytes`` equality,
so even the sign of a zero must match).
"""

import numpy as np
import pytest

from repro.gnn import GNNEncoder
from repro.gnn.fusion import LSTMFusion
from repro.gnn.readout import Set2SetReadout
from repro.graph import Batch
from repro.nn import (
    LSTM,
    BatchNorm1d,
    LSTMCell,
    Linear,
    StochNorm1d,
    Tensor,
    no_grad,
    use_dtype,
)
from repro.nn.ops import gin_message, lstm_scan
from tests.conftest import KERNEL_LEGS, kernel_leg
from tests.oracles import (
    batch_norm_reference,
    gin_message_reference,
    linear_reference,
    lstm_reference,
    lstm_scan_reference,
    lstm_step,
)


def _bits(arrays):
    return [None if a is None else np.asarray(a).tobytes() for a in arrays]


def _run(fn, leaves, params):
    """Forward + backward of a fixed random projection of every output;
    (outputs, grads) as bytes.

    Each output feeds the loss exactly once.  A gradient summed from
    three or more consumers depends on the order the tape adds them in,
    and a one-node layer sums its outputs' outside consumers before its
    own internal ones; single-consumer outputs make the comparison
    exact."""
    for p in params:
        p.grad = None
    outs = fn()
    outs = outs if isinstance(outs, (list, tuple)) else [outs]
    rng = np.random.default_rng(23)
    loss = Tensor(0.0)
    for out in outs:
        loss = loss + (out * Tensor(rng.normal(size=out.shape))).sum()
    loss.backward()
    return (_bits([o.data for o in outs]),
            _bits([t.grad for t in list(leaves) + list(params)]))


def _tape_nodes(root):
    """Every node reachable from ``root`` through ``_prev``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._prev)
    return list(seen.values())


@pytest.fixture(scope="module")
def real_batch(molecules):
    return Batch(molecules[:12])


@pytest.mark.parametrize("leg", KERNEL_LEGS)
class TestGinMessage:
    @pytest.mark.parametrize("cached_plans", [False, True])
    def test_matches_gather_embed_add_segment_sum(self, real_batch, leg,
                                                  cached_plans):
        encoder = GNNEncoder("gin", num_layers=1, emb_dim=16, dropout=0.0,
                             seed=0)
        bonds = encoder.convs[0].bond_encoder
        tables = (bonds.type_embedding.weight, bonds.tag_embedding.weight)
        h_data = np.random.default_rng(1).normal(
            size=(real_batch.x.shape[0], 16))
        b = real_batch
        ctx = b if cached_plans else None
        results = []
        for use_op in (True, False):
            h = Tensor(h_data.copy(), requires_grad=True)
            with kernel_leg(leg):
                if use_op:
                    fn = lambda: gin_message(
                        h, b.edge_index, b.edge_attr, *tables,
                        plan=ctx.edge_plan() if ctx else None)
                else:
                    fn = lambda: gin_message_reference(
                        h, b.edge_index, b.edge_attr, *tables,
                        src_plan=ctx.edge_src_plan() if ctx else None,
                        dst_plan=ctx.edge_plan() if ctx else None)
                results.append(_run(fn, [h], tables))
        assert results[0] == results[1]

    def test_float32_forward_matches_reference(self, real_batch, leg):
        rng = np.random.default_rng(2)
        b = real_batch
        with use_dtype("float32"), no_grad(), kernel_leg(leg):
            h = Tensor(rng.normal(size=(b.x.shape[0], 8)))
            tables = (Tensor(rng.normal(size=(5, 8))),
                      Tensor(rng.normal(size=(3, 8))))
            got = gin_message(h, b.edge_index, b.edge_attr, *tables)
            want = gin_message_reference(h, b.edge_index, b.edge_attr,
                                         *tables)
        assert got.data.dtype == np.float32
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("column, value", [(0, 5), (1, 3), (0, -1),
                                               (1, 9999)])
    def test_out_of_range_bond_id_raises(self, real_batch, leg, column,
                                         value):
        edge_attr = real_batch.edge_attr.copy()
        edge_attr[-1, column] = value
        rng = np.random.default_rng(3)
        h = Tensor(rng.normal(size=(real_batch.x.shape[0], 4)))
        tables = (Tensor(rng.normal(size=(5, 4))),
                  Tensor(rng.normal(size=(3, 4))))
        with kernel_leg(leg), pytest.raises(IndexError, match="bond"):
            gin_message(h, real_batch.edge_index, edge_attr, *tables)

    def test_one_node_per_layer(self, real_batch, leg):
        b = real_batch
        encoder = GNNEncoder("gin", num_layers=1, emb_dim=8, dropout=0.0,
                             seed=0)
        with kernel_leg(leg):
            out = encoder.convs[0](encoder.embed_nodes(b), b.edge_index,
                                   b.edge_attr, ctx=b)
        ops = [node._op for node in _tape_nodes(out)]
        assert ops.count("gin_message") == 1
        assert ops.count("linear") == 2
        assert "segment_sum" not in ops and "gather_segments" not in ops


@pytest.mark.parametrize("leg", KERNEL_LEGS)
class TestLstmScan:
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_lstm_matches_per_gate_tape(self, leg, bidirectional):
        rng = np.random.default_rng(7)
        lstm = LSTM(5, 4, rng, bidirectional=bidirectional)
        data = [rng.normal(size=(6, 5)) for _ in range(5)]
        params = list(lstm.parameters())
        results = []
        for fn in (lstm, lambda s: lstm_reference(lstm, s)):
            steps = [Tensor(d.copy(), requires_grad=True) for d in data]
            with kernel_leg(leg):
                results.append(_run(lambda: fn(steps), steps, params))
        assert results[0] == results[1]

    def test_cell_state_gradients_match(self, leg):
        # Three chained one-step scans, as Set2Set runs them: every h is
        # read outside and by the next step, each c only by the next
        # step, the last c outside too — gradients reach x, h0 and c0.
        rng = np.random.default_rng(3)
        cell = LSTMCell(4, 3, rng)
        x_data, h_data, c_data = (rng.normal(size=(5, k)) for k in (4, 3, 3))
        params = list(cell.parameters())
        results = []
        for step in (cell, lambda x, h, c: lstm_step(
                x, h, c, cell.w_x, cell.w_h, cell.bias)):
            leaves = [Tensor(a.copy(), requires_grad=True)
                      for a in (x_data, h_data, c_data)]

            def chain(step=step, leaves=leaves):
                x, h, c = leaves
                outs = []
                for _ in range(3):
                    h, c = step(x, h, c)
                    outs.append(h)
                return outs + [c]

            with kernel_leg(leg):
                results.append(_run(chain, leaves, params))
        assert results[0] == results[1]

    def test_scan_state_gradients_match(self, leg):
        rng = np.random.default_rng(5)
        weights = [Tensor(0.5 * rng.normal(size=s), requires_grad=True)
                   for s in ((3, 8), (2, 8), (8,))]
        data = [rng.normal(size=s) for s in ((4, 3, 3), (3, 2), (3, 2))]
        results = []
        for scan in (lstm_scan, lstm_scan_reference):
            leaves = [Tensor(d.copy(), requires_grad=True) for d in data]
            with kernel_leg(leg):
                results.append(_run(
                    lambda: scan(*leaves[:1], *weights, *leaves[1:],
                                 return_state=True), leaves, weights))
        assert results[0] == results[1]

    def test_one_node_per_direction(self, leg):
        rng = np.random.default_rng(11)
        fusion = LSTMFusion(num_layers=5, dim=8, rng=rng)
        layers = [Tensor(rng.normal(size=(7, 8)), requires_grad=True)
                  for _ in range(5)]
        with kernel_leg(leg):
            out = fusion(layers)
        ops = [node._op for node in _tape_nodes(out)]
        assert ops.count("lstm_scan") == 2
        assert "sigmoid" not in ops and "matmul" not in ops


@pytest.mark.parametrize("leg", KERNEL_LEGS)
class TestLinearAndBatchNorm:
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shape", [(6, 5), (5,)])
    def test_linear_matches_matmul_add(self, leg, bias, shape):
        rng = np.random.default_rng(13)
        layer = Linear(5, 3, rng, bias=bias)
        x_data = rng.normal(size=shape)
        params = list(layer.parameters())
        results = []
        for fn in (layer, lambda x: linear_reference(x, layer.weight,
                                                     layer.bias)):
            x = Tensor(x_data.copy(), requires_grad=True)
            with kernel_leg(leg):
                results.append(_run(lambda: fn(x), [x], params))
        assert results[0] == results[1]
        # The output node, x and the parameters: no intermediate node.
        out = layer(Tensor(x_data, requires_grad=True))
        assert len(_tape_nodes(out)) == 2 + len(params)

    @pytest.mark.parametrize("norm_cls", [BatchNorm1d, StochNorm1d])
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_matches_affine_chain(self, leg, norm_cls, training):
        rng = np.random.default_rng(17)
        x_data = rng.normal(size=(9, 4))
        gamma = rng.uniform(0.5, 1.5, size=4)
        results = []
        for use_layer in (True, False):
            norm = norm_cls(4)
            norm.gamma.data[:] = gamma
            norm.set_buffer("running_var", np.full(4, 2.0))
            norm.train(training)
            x = Tensor(x_data.copy(), requires_grad=True)
            params = list(norm.parameters())
            if use_layer:
                fn = lambda: norm(x)
            else:
                mean = x_data.mean(axis=0) if training else norm.running_mean
                var = x_data.var(axis=0) if training else norm.running_var
                if norm_cls is StochNorm1d and training:
                    select = norm.rng.random(4) < norm.p
                    mean = np.where(select, norm.running_mean, mean)
                    var = np.where(select, norm.running_var, var)
                fn = lambda: batch_norm_reference(
                    x, mean, 1.0 / np.sqrt(var + norm.eps), norm.gamma,
                    norm.beta)
            with kernel_leg(leg):
                results.append(_run(fn, [x], params))
        assert results[0] == results[1]


def test_set2set_readout_trains_through_the_scan(batch):
    # Set2Set chains one-step LSTMCell scans; h and c flow step to step.
    rng = np.random.default_rng(19)
    readout = Set2SetReadout(4, rng)
    h = Tensor(rng.normal(size=(batch.x.shape[0], 4)), requires_grad=True)
    readout(h, batch.batch, batch.num_graphs).sum().backward()
    assert np.abs(h.grad).sum() > 0
    assert all(p.grad is not None for p in readout.lstm.parameters())
