"""Standard layers: Linear, Embedding, MLP, normalization, adapters.

``StochNorm1d`` implements Stochastic Normalization (Kou et al., NeurIPS'20),
one of the regularized fine-tuning baselines the paper compares against
(Table VII): at train time each feature channel randomly mixes batch
statistics with running (pre-trained) statistics, acting as an architecture-
level regularizer against catastrophic forgetting.

``Bottleneck`` is the parameter-efficient ``R^d -> R^m -> R^d`` transform
(m << d) used both by Adapter-Tuning (Houlsby et al.) and by the paper's
``trans_aug`` identity-augmentation candidate.
"""

from __future__ import annotations

import numpy as np

from . import init
from .functional import dropout as dropout_fn
from .module import Module, Parameter
from .ops import batch_norm, linear
from .tensor import Tensor, gather, is_inference

__all__ = [
    "Linear",
    "Embedding",
    "MLP",
    "Dropout",
    "BatchNorm1d",
    "StochNorm1d",
    "Bottleneck",
    "Identity",
]


class Identity(Module):
    """No-op module; stands in for disabled augmentations."""

    def forward(self, x):
        return x


class Linear(Module):
    """Affine map ``y = x W + b`` with weight of shape (in_dim, out_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(init.xavier_uniform((in_dim, out_dim), rng))
        self.bias = Parameter(init.zeros((out_dim,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.xavier_uniform((num_embeddings, dim), rng))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or (ids.size and ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return gather(self.weight, ids)


class MLP(Module):
    """Multi-layer perceptron with ReLU between hidden layers."""

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator,
        activate_last: bool = False,
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.dims = list(dims)
        self.activate_last = activate_last
        self.layers = _module_list([Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])])

    def forward(self, x: Tensor) -> Tensor:
        n = len(self.layers)
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < n - 1 or self.activate_last:
                x = x.relu()
        return x


class Dropout(Module):
    """Inverted dropout module with its own RNG stream."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.p, self.rng,
                          training=self.training and not is_inference())


class BatchNorm1d(Module):
    """Batch normalization over the leading (row) dimension."""

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))
        self.register_buffer("running_mean", np.zeros(dim))
        self.register_buffer("running_var", np.ones(dim))

    def _normalize(self, x: Tensor, mean: np.ndarray, var: np.ndarray) -> Tensor:
        return batch_norm(x, mean, 1.0 / np.sqrt(var + self.eps), self.gamma,
                          self.beta)

    def forward(self, x: Tensor) -> Tensor:
        if self.training and not is_inference() and x.shape[0] > 1:
            batch_mean = x.data.mean(axis=0)
            batch_var = x.data.var(axis=0)
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * batch_mean,
            )
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * batch_var,
            )
            # Centering uses batch stats as constants: this matches the usual
            # "evaluation-style" BN gradient approximation and keeps the tape
            # small; at our scale the ranking behaviour is unaffected.
            return self._normalize(x, batch_mean, batch_var)
        return self._normalize(x, self.running_mean, self.running_var)


class StochNorm1d(BatchNorm1d):
    """Stochastic Normalization (Kou et al., 2020).

    With probability ``p`` per channel, normalize by running (pre-trained)
    statistics instead of batch statistics, interpolating between BN and a
    frozen normalizer.  Regularizes fine-tuning against forgetting.
    """

    def __init__(self, dim: int, p: float = 0.5, momentum: float = 0.1, eps: float = 1e-5,
                 rng: np.random.Generator | None = None):
        super().__init__(dim, momentum=momentum, eps=eps)
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or is_inference() or x.shape[0] <= 1:
            return self._normalize(x, self.running_mean, self.running_var)
        batch_mean = x.data.mean(axis=0)
        batch_var = x.data.var(axis=0)
        select = self.rng.random(self.dim) < self.p
        mean = np.where(select, self.running_mean, batch_mean)
        var = np.where(select, self.running_var, batch_var)
        self.set_buffer(
            "running_mean",
            (1 - self.momentum) * self.running_mean + self.momentum * batch_mean,
        )
        self.set_buffer(
            "running_var",
            (1 - self.momentum) * self.running_var + self.momentum * batch_var,
        )
        return self._normalize(x, mean, var)


class Bottleneck(Module):
    """Parameter-efficient down-project / nonlinearity / up-project block.

    ``R^d -> R^m -> R^d`` with ``m << d`` and a residual-free output; callers
    add residuals as needed.  The up-projection is zero-initialized so a fresh
    bottleneck starts as the zero function and does not perturb pre-trained
    representations at step 0 (Houlsby et al.'s near-identity initialization).
    """

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        if hidden >= dim:
            raise ValueError("bottleneck hidden width must be < dim")
        self.dim = dim
        self.hidden = hidden
        self.down = Linear(dim, hidden, rng)
        self.up = Linear(hidden, dim, rng)
        self.up.weight.data[:] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        return self.up(self.down(x).relu())


def _module_list(modules):
    from .module import ModuleList

    return ModuleList(modules)
