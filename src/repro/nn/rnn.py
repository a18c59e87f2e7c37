"""Recurrent cells used by the ``lstm`` fusion candidate and Set2Set readout.

The paper's multi-scale fusion candidate ``lstm`` follows Jumping Knowledge
(Xu et al., 2018): per node, an LSTM consumes the sequence of K layer-wise
representations and produces attention scores over layers.  Set2Set
(Vinyals et al., 2015) runs an LSTM over processing steps with content-based
attention over nodes.

The step math lives in one place, the ``lstm_scan`` op: :class:`LSTM`
runs one scan per direction and :class:`LSTMCell` a one-step scan, with
or without gradients.  A scan is one tape node.  Its forward —
:func:`lstm_scan_numpy`, or the fused C loop of
:mod:`repro.nn.compiled.kernels` where the kernel library built — keeps
the per-step gate buffers, and :func:`lstm_scan_node`'s adjoint runs
backpropagation through time over them in numpy, reproducing the
per-gate tape composition it replaced bit for bit (same association,
same per-step GEMM operand layouts, weight gradients accumulated from
the last step down to the first).
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, stack


__all__ = ["LSTMCell", "LSTM", "lstm_scan_numpy", "lstm_scan_node"]


def lstm_scan_numpy(x, w_x, w_h, bias, h0, c0, keep=True):
    """numpy LSTM forward over the stacked steps ``x`` ``(T, B, I)``.

    Per step, gates packed ``[i, f, g, o]``: ``gates = x[t] @ w_x + h @
    w_h + bias``, ``c = f*c + i*g``, ``h = o*tanh(c)``, each sigmoid
    computed as ``1 / (1 + exp(-pre))``.

    Returns ``(seq, saved)``: ``seq`` is ``(T + 1, B, H)`` holding
    ``h_1 .. h_T`` then ``c_T``; ``saved`` the per-step ``(B, H)``
    arrays the adjoint reads, as lists — ``exp(-pre)`` of the i/f/o
    gates, ``tanh`` of the cell gate, the cell states ``c_0 .. c_T`` and
    ``tanh(c_1 .. c_T)`` — or None when ``keep`` is false (no gradient
    will be taken).
    """
    steps, batch = x.shape[0], x.shape[1]
    hidden = w_h.shape[0]
    seq = np.empty((steps + 1, batch, hidden), dtype=x.dtype)
    saved = ([], [], [], [], [c0], []) if keep else None
    h, c = h0, c0
    for t in range(steps):
        gates = x[t] @ w_x + h @ w_h + bias
        e_i = np.exp(-gates[:, 0 * hidden:1 * hidden])
        e_f = np.exp(-gates[:, 1 * hidden:2 * hidden])
        g = np.tanh(gates[:, 2 * hidden:3 * hidden])
        e_o = np.exp(-gates[:, 3 * hidden:4 * hidden])
        c = (1.0 / (1.0 + e_f)) * c + (1.0 / (1.0 + e_i)) * g
        t_c = np.tanh(c)
        np.multiply(1.0 / (1.0 + e_o), t_c, out=seq[t])
        if keep:
            for buffers, buf in zip(saved, (e_i, e_f, g, e_o, c, t_c)):
                buffers.append(buf)
        h = seq[t]
    seq[steps] = c
    return seq, saved


def lstm_scan_node(x, w_x, w_h, bias, h0=None, c0=None, return_state=False,
                   forward=lstm_scan_numpy):
    """The ``lstm_scan`` op as one tape node over ``forward``'s buffers.

    ``forward(x, w_x, w_h, bias, h0, c0, keep)`` returns ``(seq,
    saved)`` as :func:`lstm_scan_numpy` does.  The node's output is
    ``seq`` (every hidden state, then the final cell state), so
    gradients reach ``h0``/``c0`` through one node; callers get slices
    of it.

    Returns the stacked hidden states ``(T, B, H)``; with
    ``return_state=True`` also the final ``h`` and ``c``.
    """
    x, w_x, w_h, bias = (as_tensor(t) for t in (x, w_x, w_h, bias))
    if x.ndim != 3 or x.shape[0] == 0:
        raise ValueError(
            f"lstm_scan needs (steps >= 1, batch, input) steps, got "
            f"shape {x.shape}")
    steps, batch = x.shape[0], x.shape[1]
    hidden = w_h.shape[0]
    h0 = as_tensor(h0) if h0 is not None else Tensor(np.zeros((batch, hidden)))
    c0 = as_tensor(c0) if c0 is not None else Tensor(np.zeros((batch, hidden)))
    keep = is_grad_enabled() and any(
        t.requires_grad for t in (x, w_x, w_h, bias, h0, c0))
    seq_data, saved = forward(x.data, w_x.data, w_h.data, bias.data,
                              h0.data, c0.data, keep)

    def backward(g):
        ei, ef, gg, eo, cells, tc = saved
        w_x_t = w_x.data.swapaxes(-1, -2)
        w_h_t = w_h.data.swapaxes(-1, -2)
        dx = np.empty_like(x.data) if x.requires_grad else None
        dgates = np.empty((batch, 4 * hidden), dtype=g.dtype)
        # The final cell state's own consumers (Set2Set's next step).
        dc_next = g[steps] if g[steps].any() else None
        dh_next = None
        for t in range(steps - 1, -1, -1):
            gate_i = 1.0 / (1.0 + ei[t])
            gate_f = 1.0 / (1.0 + ef[t])
            gate_o = 1.0 / (1.0 + eo[t])
            dh = g[t] if dh_next is None else g[t] + dh_next
            d_out = dh * tc[t]
            dc = dh * gate_o * (1.0 - tc[t] ** 2)
            if dc_next is not None:
                dc = dc + dc_next
            dgates[:, 0 * hidden:1 * hidden] = (
                dc * gg[t] * gate_i * (1.0 - gate_i))
            dgates[:, 1 * hidden:2 * hidden] = (
                dc * cells[t] * gate_f * (1.0 - gate_f))
            dgates[:, 2 * hidden:3 * hidden] = (
                dc * gate_i * (1.0 - gg[t] ** 2))
            dgates[:, 3 * hidden:4 * hidden] = (
                d_out * gate_o * (1.0 - gate_o))
            # The tape assembled the gate gradient as zeros + slice, which
            # turns -0.0 into +0.0; keep that.
            dgates += 0.0
            dc_next = dc * gate_f
            h_prev = h0.data if t == 0 else seq_data[t - 1]
            if bias.requires_grad:
                bias._accumulate(dgates)
            if w_h.requires_grad:
                w_h._accumulate(h_prev.swapaxes(-1, -2) @ dgates)
            if w_x.requires_grad:
                w_x._accumulate(x.data[t].swapaxes(-1, -2) @ dgates)
            if dx is not None:
                dx[t] = dgates @ w_x_t
            dh_next = dgates @ w_h_t
        if x.requires_grad:
            x._accumulate(dx)
        if h0.requires_grad:
            h0._accumulate(dh_next)
        if c0.requires_grad:
            c0._accumulate(dc_next)

    seq = Tensor._result(seq_data, (x, w_x, w_h, bias, h0, c0), "lstm_scan",
                         backward)
    out = seq[:steps]
    if return_state:
        return out, seq[steps - 1], seq[steps]
    return out


class LSTMCell(Module):
    """A single LSTM step: ``(x, h, c) -> (h', c')``."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Gates packed as [i, f, g, o] along the output dimension.
        self.w_x = Parameter(init.xavier_uniform((input_dim, 4 * hidden_dim), rng))
        self.w_h = Parameter(init.xavier_uniform((hidden_dim, 4 * hidden_dim), rng))
        self.bias = Parameter(init.zeros((4 * hidden_dim,)))
        # Positive forget-gate bias helps gradient flow at initialization.
        self.bias.data[hidden_dim:2 * hidden_dim] = 1.0

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        from .ops import lstm_scan

        _, h_next, c_next = lstm_scan(as_tensor(x).expand_dims(0), self.w_x,
                                      self.w_h, self.bias, h0=h, c0=c,
                                      return_state=True)
        return h_next, c_next

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_dim))
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Unrolled (optionally bidirectional) LSTM over a short sequence.

    Input is a list of ``(batch, input_dim)`` tensors — one per timestep —
    which matches how layer-wise GNN representations arrive in fusion.
    Returns per-step hidden states concatenated over directions.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        bidirectional: bool = False,
    ):
        super().__init__()
        self.bidirectional = bidirectional
        self.hidden_dim = hidden_dim
        self.fwd = LSTMCell(input_dim, hidden_dim, rng)
        if bidirectional:
            self.bwd = LSTMCell(input_dim, hidden_dim, rng)

    @property
    def output_dim(self) -> int:
        return self.hidden_dim * (2 if self.bidirectional else 1)

    def forward(self, steps: list[Tensor]) -> list[Tensor]:
        if not steps:
            raise ValueError("LSTM needs at least one timestep")
        forward_states = _scan(self.fwd, steps)
        if not self.bidirectional:
            return forward_states
        backward_states = _scan(self.bwd, steps[::-1])[::-1]
        return [
            concatenate([f, b], axis=-1)
            for f, b in zip(forward_states, backward_states)
        ]


def _scan(cell: LSTMCell, steps: list[Tensor]) -> list[Tensor]:
    """Per-step hidden states of one whole-sequence ``lstm_scan``."""
    from .ops import lstm_scan

    out = lstm_scan(stack(steps, 0), cell.w_x, cell.w_h, cell.bias)
    return [out[t] for t in range(len(steps))]
