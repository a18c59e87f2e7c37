"""Recurrent cells used by the ``lstm`` fusion candidate and Set2Set readout.

The paper's multi-scale fusion candidate ``lstm`` follows Jumping Knowledge
(Xu et al., 2018): per node, an LSTM consumes the sequence of K layer-wise
representations and produces attention scores over layers.  Set2Set
(Vinyals et al., 2015) runs an LSTM over processing steps with content-based
attention over nodes.

The step math lives in two places that must stay in lockstep:

* :func:`_lstm_scan_reference` — the tape composition registered as the
  ``lstm_scan`` op's legacy/reference implementation.  Inference-time
  forwards (``no_grad``) route through the ``lstm_scan`` dispatcher, so
  the fused C scan serves them wherever the kernel library built.
* The inline loops below — used whenever gradients are being recorded.
  They build the exact same tape the reference scan would, without the
  ``stack``/``getitem`` hops, so training trajectories are bitwise
  unchanged from before the scan op existed.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, stack


__all__ = ["LSTMCell", "LSTM"]


def _lstm_scan_reference(x, w_x, w_h, bias, h0=None, c0=None,
                         return_state=False):
    """Tape-composition LSTM scan over stacked steps ``x`` of shape
    ``(steps, batch, input_dim)``.

    The ``lstm_scan`` op's reference implementation: per step, exactly
    the :class:`LSTMCell` gate math — ``gates = x[t] @ w_x + h @ w_h +
    bias`` with gates packed ``[i, f, g, o]``, then ``c = f*c + i*g``
    and ``h = o*tanh(c)``.  Gradients flow through every step via the
    tape; the fused C scan (the ``reduceat`` impl) must match this
    composition bit for bit (and delegates back here whenever gradients
    are being recorded).

    Returns the stacked per-step hidden states ``(steps, batch,
    hidden)``; with ``return_state=True``, also the final ``h`` and
    ``c``.
    """
    x = as_tensor(x)
    w_x = as_tensor(w_x)
    w_h = as_tensor(w_h)
    bias = as_tensor(bias)
    steps, batch = x.shape[0], x.shape[1]
    hidden = w_h.shape[0]
    h = as_tensor(h0) if h0 is not None else Tensor(np.zeros((batch, hidden)))
    c = as_tensor(c0) if c0 is not None else Tensor(np.zeros((batch, hidden)))
    outputs = []
    for t in range(steps):
        gates = x[t] @ w_x + h @ w_h + bias
        i = gates[:, 0 * hidden:1 * hidden].sigmoid()
        f = gates[:, 1 * hidden:2 * hidden].sigmoid()
        g = gates[:, 2 * hidden:3 * hidden].tanh()
        o = gates[:, 3 * hidden:4 * hidden].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        outputs.append(h)
    out = stack(outputs, 0)
    if return_state:
        return out, h, c
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
        if is_grad_enabled():
            gates = x @ self.w_x + h @ self.w_h + self.bias
            hd = self.hidden_dim
            i = gates[:, 0 * hd:1 * hd].sigmoid()
            f = gates[:, 1 * hd:2 * hd].sigmoid()
            g = gates[:, 2 * hd:3 * hd].tanh()
            o = gates[:, 3 * hd:4 * hd].sigmoid()
            c_next = f * c + i * g
            h_next = o * c_next.tanh()
            return h_next, c_next
        # Inference: a one-step scan through the dispatcher, so the
        # fused C scan serves Set2Set's step loop.
        from .ops import lstm_scan

        _, h_next, c_next = lstm_scan(Tensor(x.data[None]), self.w_x,
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
        if not is_grad_enabled():
            return self._forward_scan(steps)
        batch = steps[0].shape[0]
        h, c = self.fwd.initial_state(batch)
        forward_states = []
        for x in steps:
            h, c = self.fwd(x, h, c)
            forward_states.append(h)
        if not self.bidirectional:
            return forward_states
        h, c = self.bwd.initial_state(batch)
        backward_states = []
        for x in reversed(steps):
            h, c = self.bwd(x, h, c)
            backward_states.append(h)
        backward_states.reverse()
        return [
            concatenate([f, b], axis=-1)
            for f, b in zip(forward_states, backward_states)
        ]

    def _forward_scan(self, steps: list[Tensor]) -> list[Tensor]:
        """Inference forward as whole-sequence ``lstm_scan`` dispatches."""
        from .ops import lstm_scan

        out = lstm_scan(stack(steps, 0), self.fwd.w_x, self.fwd.w_h,
                        self.fwd.bias)
        forward_states = [out[t] for t in range(len(steps))]
        if not self.bidirectional:
            return forward_states
        out = lstm_scan(stack(list(reversed(steps)), 0), self.bwd.w_x,
                        self.bwd.w_h, self.bwd.bias)
        backward_states = [out[t] for t in range(len(steps))]
        backward_states.reverse()
        return [
            concatenate([f, b], axis=-1)
            for f, b in zip(forward_states, backward_states)
        ]
