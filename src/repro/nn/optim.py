"""The Adam optimizer and global gradient-norm clipping.

The paper fine-tunes with Adam at learning rate 1e-3 (Sec. IV-A4); the
bi-level search additionally keeps a second Adam instance for the controller
parameters ``alpha`` (Sec. III-C).
"""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Adam", "clip_grad_norm"]


class Adam:
    """Adam (Kingma & Ba) with bias correction over an explicit parameter list.

    :meth:`step` skips a parameter whose ``grad`` is ``None`` or whose
    ``requires_grad`` is off: its ``data`` and moment estimates stay as
    they are.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None or not p.requires_grad:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= self.lr * ((m / bias1) / (np.sqrt(v / bias2) + self.eps))


def clip_grad_norm(params, max_norm: float) -> float:
    """Clip the global L2 norm of gradients in-place; returns the pre-clip norm."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
