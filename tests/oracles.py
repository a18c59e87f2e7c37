"""Reference implementations the fast ops are tested against.

Three kinds live here:

* the ``np.add.at`` / ``np.maximum.at`` references of the registered
  kernel ops, collected in :data:`ORACLES` — ``kernel_leg("legacy")``
  (``tests/conftest.py``) runs each of them in place of its op;
* tape-composition oracles for the one-node layer ops: each rebuilds a
  layer the way it ran before it became a single tape node — one tape
  node per matmul, add, slice, sigmoid and tanh — so the bit-identity
  tests can compare the fused op's forward and every gradient against
  it at tolerance 0.0;
* :func:`spec_onehots`, a discrete spec as exactly one-hot relaxed
  weights, so the supernet's mixed forward can be run as the reference
  for its discrete-spec sweep.
"""

import numpy as np

from repro.nn import (
    SegmentPlan,
    Tensor,
    as_tensor,
    concatenate,
    gather,
    gather_segments,
    segment_sum,
    stack,
)
from repro.nn import tensor as _tensor
from repro.nn.functional import softmax
from repro.nn.ops import OP_REGISTRY
from repro.nn.rnn import lstm_scan_node
from repro.nn.segment import _gin_indices, _gin_messages, _gin_node


# ----------------------------------------------------------------------
# np.add.at references of the kernel ops
# ----------------------------------------------------------------------
def _legacy_segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets; adjoint is a gather.

    The ``np.add.at`` reference of ``segment_sum`` (index-array calling
    convention).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = np.zeros((num_segments,) + x.data.shape[1:],
                        dtype=x.data.dtype)
    np.add.at(out_data, segment_ids, x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[segment_ids])

    return Tensor._result(out_data, (x,), "segment_sum", backward)


def _legacy_segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-pool rows of ``x`` per segment (empty segments yield zeros)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(x.data.dtype)
    counts = np.maximum(counts, 1.0)
    total = _legacy_segment_sum(x, segment_ids, num_segments)
    return total * Tensor(1.0 / counts).reshape((num_segments,) + (1,) * (x.ndim - 1))


def _legacy_segment_max(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Max-pool rows of ``x`` per segment (empty segments yield zeros)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = np.full((num_segments,) + x.data.shape[1:], -np.inf,
                       dtype=x.data.dtype)
    np.maximum.at(out_data, segment_ids, x.data)
    empty = ~np.isin(np.arange(num_segments), segment_ids)
    out_data[empty] = 0.0
    winners = (x.data == out_data[segment_ids])

    def backward(g):
        if not x.requires_grad:
            return
        # Split gradient among ties within each segment.
        tie_counts = np.zeros_like(out_data)
        np.add.at(tie_counts, segment_ids, winners.astype(out_data.dtype))
        tie_counts = np.maximum(tie_counts, 1.0)
        x._accumulate(np.where(winners, g[segment_ids] / tie_counts[segment_ids], 0.0))

    return Tensor._result(out_data, (x,), "segment_max", backward)


def _ids_of(index, num_segments: int | None) -> tuple[np.ndarray, int]:
    """``(segment_ids, num_segments)`` from a plan or a plain index array."""
    if isinstance(index, SegmentPlan):
        return index.segment_ids, index.num_segments
    if num_segments is None:
        raise ValueError("num_segments is required when passing a plain index array")
    return np.asarray(index, dtype=np.int64), int(num_segments)


def _segment_sum_legacy(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Legacy ``np.add.at`` segment sum (plan-or-ids calling convention)."""
    ids, n = _ids_of(index, num_segments)
    return _legacy_segment_sum(as_tensor(x), ids, n)


def _segment_mean_legacy(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Legacy segment mean (plan-or-ids calling convention)."""
    ids, n = _ids_of(index, num_segments)
    return _legacy_segment_mean(as_tensor(x), ids, n)


def _segment_max_legacy(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Legacy ``np.maximum.at`` segment max (plan-or-ids calling convention)."""
    ids, n = _ids_of(index, num_segments)
    return _legacy_segment_max(as_tensor(x), ids, n)


def _gather_segments_legacy(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Legacy gather_segments: the plain row gather with np.add.at adjoint."""
    ids, _ = _ids_of(index, num_segments)
    return _tensor.gather(as_tensor(x), ids)


def _segment_softmax_legacy(scores: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Legacy segment softmax: the same composition over the legacy sub-ops."""
    scores = as_tensor(scores)
    seg_max = _segment_max_legacy(scores, index, num_segments).detach()
    shifted = scores - _gather_segments_legacy(seg_max, index, num_segments)
    exp = shifted.exp()
    denom = _segment_sum_legacy(exp, index, num_segments)
    return exp / (_gather_segments_legacy(denom, index, num_segments) + 1e-16)


def _gin_message_legacy(h: Tensor, edge_index, edge_attr, type_table,
                        tag_table, plan: SegmentPlan | None = None) -> Tensor:
    """Legacy ``gin_message``: one node over the ``np.add.at`` reference
    scatters (``plan`` is accepted and ignored)."""
    h, type_table, tag_table = (as_tensor(t) for t in (h, type_table,
                                                        tag_table))
    src, dst, attr = _gin_indices(h, edge_index, edge_attr, type_table,
                                  tag_table)
    out_data = _tensor._add_at_scatter(
        _gin_messages(h, type_table, tag_table, src, attr), dst, h.shape[0])
    return _gin_node(out_data, h, type_table, tag_table, src, dst, attr,
                     _legacy_scatter_rows)


def _legacy_scatter_rows(g, rows, index, num_rows):
    """``np.add.at`` scatter of ``g[rows]`` into ``num_rows`` rows."""
    return _tensor._add_at_scatter(g[rows], index, num_rows)


#: Registered ops with a single implementation: each is its own reference.
SELF_REFERENCED = ("gather", "exp", "log", "sqrt", "tanh", "sigmoid", "relu",
                   "abs", "matmul", "concat", "linear", "batch_norm")

#: op name -> the reference ``kernel_leg("legacy")`` runs in its place.
#: ``scatter_add``'s is the ``np.add.at`` scatter the fast kernel falls
#: back to for layouts it rejects; ``lstm_scan``'s the one-node scan over
#: the numpy forward.
ORACLES = {
    "segment_sum": _segment_sum_legacy,
    "segment_mean": _segment_mean_legacy,
    "segment_max": _segment_max_legacy,
    "segment_softmax": _segment_softmax_legacy,
    "gather_segments": _gather_segments_legacy,
    "scatter_add": _tensor._add_at_scatter,
    "gin_message": _gin_message_legacy,
    "lstm_scan": lstm_scan_node,
    **{name: OP_REGISTRY.get(name).impl for name in SELF_REFERENCED},
}


# ----------------------------------------------------------------------
# Tape-composition oracles of the one-node layer ops
# ----------------------------------------------------------------------


def lstm_step(x, h, c, w_x, w_h, bias):
    """One LSTM step as per-gate tape nodes (gates packed [i, f, g, o])."""
    hidden = w_h.shape[0]
    gates = x @ w_x + h @ w_h + bias
    i = gates[:, 0 * hidden:1 * hidden].sigmoid()
    f = gates[:, 1 * hidden:2 * hidden].sigmoid()
    g = gates[:, 2 * hidden:3 * hidden].tanh()
    o = gates[:, 3 * hidden:4 * hidden].sigmoid()
    c = f * c + i * g
    h = o * c.tanh()
    return h, c


def lstm_scan_reference(x, w_x, w_h, bias, h0=None, c0=None,
                        return_state=False):
    """The ``lstm_scan`` op as the per-step tape composition over the
    stacked steps ``x`` ``(T, B, I)``."""
    x, w_x, w_h, bias = (as_tensor(t) for t in (x, w_x, w_h, bias))
    batch, hidden = x.shape[1], w_h.shape[0]
    h = as_tensor(h0) if h0 is not None else Tensor(np.zeros((batch, hidden)))
    c = as_tensor(c0) if c0 is not None else Tensor(np.zeros((batch, hidden)))
    outputs = []
    for t in range(x.shape[0]):
        h, c = lstm_step(x[t], h, c, w_x, w_h, bias)
        outputs.append(h)
    out = stack(outputs, 0)
    if return_state:
        return out, h, c
    return out


def lstm_reference(lstm, steps):
    """``LSTM.forward`` as step-by-step cell compositions."""
    def run(cell, sequence):
        h, c = cell.initial_state(sequence[0].shape[0])
        states = []
        for x in sequence:
            h, c = lstm_step(x, h, c, cell.w_x, cell.w_h, cell.bias)
            states.append(h)
        return states

    forward_states = run(lstm.fwd, steps)
    if not lstm.bidirectional:
        return forward_states
    backward_states = run(lstm.bwd, steps[::-1])[::-1]
    return [concatenate([f, b], axis=-1)
            for f, b in zip(forward_states, backward_states)]


def linear_reference(x, weight, bias=None):
    """``Linear.forward`` as a matmul node plus an add node."""
    out = as_tensor(x) @ weight
    return out if bias is None else out + bias


def batch_norm_reference(x, mean, inv_std, gamma, beta):
    """``BatchNorm1d`` normalization as sub / mul / mul / add nodes."""
    return (as_tensor(x) - Tensor(mean)) * Tensor(inv_std) * gamma + beta


def gin_message_reference(h, edge_index, edge_attr, type_table, tag_table,
                          src_plan=None, dst_plan=None):
    """GIN aggregation as gather + two embedding lookups + add +
    ``segment_sum`` (through the batch's plans when given)."""
    if src_plan is not None:
        sources = gather_segments(h, src_plan)
    else:
        sources = gather(h, edge_index[0])
    bonds = (gather(type_table, edge_attr[:, 0])
             + gather(tag_table, edge_attr[:, 1]))
    index = dst_plan if dst_plan is not None else edge_index[1]
    return segment_sum(sources + bonds, index, h.shape[0])


def mlp_reference(mlp, x):
    """``MLP.forward`` over :func:`linear_reference` layers."""
    n = len(mlp.layers)
    for k, layer in enumerate(mlp.layers):
        x = linear_reference(x, layer.weight, layer.bias)
        if k < n - 1 or mlp.activate_last:
            x = x.relu()
    return x


def gin_conv_reference(conv, h, batch):
    """``GINConv.forward`` over a collated batch, as the compositions
    above: gather + embeddings + add + ``segment_sum``, then the MLP."""
    bonds = conv.bond_encoder
    agg = gin_message_reference(
        h, batch.edge_index, batch.edge_attr, bonds.type_embedding.weight,
        bonds.tag_embedding.weight, src_plan=batch.edge_src_plan(),
        dst_plan=batch.edge_plan())
    return mlp_reference(conv.mlp, h * (conv.eps + 1.0) + agg)


def lstm_fusion_reference(fusion, layers):
    """``LSTMFusion.forward`` as per-gate LSTM steps and matmul + add
    scorers."""
    states = lstm_reference(fusion.lstm, layers)
    scores = concatenate([linear_reference(s, fusion.scorer.weight,
                                           fusion.scorer.bias)
                          for s in states], axis=-1)
    weights = softmax(scores, axis=-1).transpose((1, 0)).expand_dims(2)
    return (stack(layers, axis=0) * weights).sum(axis=0)


# ----------------------------------------------------------------------
# One-hot relaxed weights of a discrete spec
# ----------------------------------------------------------------------
def spec_onehots(spec, space, num_layers: int):
    """Discrete spec -> one-hot ``SampledStrategy`` for
    ``S2PGNNSupernet.forward_full`` (one 1.0 per dimension, 0.0 elsewhere)."""
    from repro.core.controller import SampledStrategy

    def onehot(options, choice):
        vec = np.zeros(len(options))
        vec[list(options).index(choice)] = 1.0
        return Tensor(vec)

    return SampledStrategy(
        identity=[onehot(space.identity, spec.identity[k]) for k in range(num_layers)],
        fusion=onehot(space.fusion, spec.fusion),
        readout=onehot(space.readout, spec.readout),
    )
