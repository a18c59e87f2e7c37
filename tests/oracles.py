"""Tape-composition oracles for the one-node layer ops.

Each function rebuilds a layer the way it ran before it became a single
tape node — one tape node per matmul, add, slice, sigmoid and tanh — so
the bit-identity tests can compare the fused op's forward and every
gradient against it at tolerance 0.0.
"""

import numpy as np

from repro.nn import (
    Tensor,
    as_tensor,
    concatenate,
    gather,
    gather_segments,
    segment_sum,
    stack,
)
from repro.nn.functional import softmax


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
