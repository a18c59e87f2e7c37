"""Fine-tuning strategy controller ``p_alpha(phi)`` (paper Sec. III-C1).

Dimension-specific controllers ``alpha = {alpha_id, alpha_fuse, alpha_read}``
parameterize categorical distributions over candidate operators.  Sampling
is made differentiable with the Gumbel-softmax re-parameterization (Eq. 17):

``g_alpha(U)[i] = softmax((log alpha[i] - log(-log U[i])) / tau)``

so the controller gradient (Eq. 18) is a plain backprop through the relaxed
sample.  As the temperature ``tau -> 0`` the relaxed sample approaches the
discrete one-hot, making the relaxation asymptotically unbiased.

The identity dimension is per-layer (K independent controllers); the conv
dimension has a single candidate (``pre_trained``) so it needs no controller.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, Parameter, Tensor
from ..nn.functional import gumbel_softmax, softmax_np
from .space import FineTuneSpace, FineTuneStrategySpec

__all__ = ["StrategyController", "SampledStrategy"]


class SampledStrategy:
    """A relaxed strategy sample: per-dimension mixing-weight tensors."""

    def __init__(self, identity: list[Tensor], fusion: Tensor, readout: Tensor):
        self.identity = identity  # K tensors, each (|O_id|,)
        self.fusion = fusion  # (|O_fuse|,)
        self.readout = readout  # (|O_read|,)


class StrategyController(Module):
    """Learnable ``alpha`` with Gumbel-softmax sampling and argmax derivation."""

    def __init__(self, space: FineTuneSpace, num_layers: int):
        super().__init__()
        self.space = space
        self.num_layers = num_layers
        # log-alpha initialized to zero => uniform prior over candidates.
        self.alpha_identity = Parameter(np.zeros((num_layers, len(space.identity))))
        self.alpha_fusion = Parameter(np.zeros(len(space.fusion)))
        self.alpha_readout = Parameter(np.zeros(len(space.readout)))

    def sample(self, tau: float, rng: np.random.Generator,
               hard: bool = False) -> SampledStrategy:
        """Draw a relaxed strategy ``phi ~ p_alpha(phi)`` at temperature tau."""
        identity = [
            gumbel_softmax(self.alpha_identity[k], tau, rng, hard=hard)
            for k in range(self.num_layers)
        ]
        fusion = gumbel_softmax(self.alpha_fusion, tau, rng, hard=hard)
        readout = gumbel_softmax(self.alpha_readout, tau, rng, hard=hard)
        return SampledStrategy(identity, fusion, readout)

    def derive(self) -> FineTuneStrategySpec:
        """Most likely strategy ``phi* = argmax p_alpha`` per dimension."""
        ids = tuple(
            self.space.identity[int(np.argmax(self.alpha_identity.data[k]))]
            for k in range(self.num_layers)
        )
        fuse = self.space.fusion[int(np.argmax(self.alpha_fusion.data))]
        read = self.space.readout[int(np.argmax(self.alpha_readout.data))]
        return FineTuneStrategySpec(identity=ids, fusion=fuse, readout=read)

    def probabilities(self) -> dict:
        """Current candidate probabilities per dimension (for analysis)."""
        return {
            "identity": softmax_np(self.alpha_identity.data, axis=-1),
            "fusion": softmax_np(self.alpha_fusion.data),
            "readout": softmax_np(self.alpha_readout.data),
        }
