"""Tests for the Gumbel-softmax strategy controller (paper Eq. 17-18)."""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE
from repro.core.controller import StrategyController
from repro.nn import Adam


@pytest.fixture
def controller():
    return StrategyController(DEFAULT_SPACE, num_layers=3)


class TestSampling:
    def test_sample_shapes(self, controller, rng):
        s = controller.sample(tau=1.0, rng=rng)
        assert len(s.identity) == 3
        assert s.identity[0].shape == (3,)
        assert s.fusion.shape == (7,)
        assert s.readout.shape == (6,)

    def test_samples_are_distributions(self, controller, rng):
        s = controller.sample(tau=1.0, rng=rng)
        for w in s.identity + [s.fusion, s.readout]:
            assert np.all(w.data >= 0)
            assert abs(w.data.sum() - 1.0) < 1e-9

    def test_low_tau_near_discrete(self, controller, rng):
        s = controller.sample(tau=0.01, rng=rng)
        assert s.fusion.data.max() > 0.99

    def test_hard_sampling_exact_onehot(self, controller, rng):
        s = controller.sample(tau=0.5, rng=rng, hard=True)
        assert set(np.unique(s.readout.data)) <= {0.0, 1.0}
        assert s.readout.data.sum() == 1.0

    def test_uniform_init_probabilities(self, controller):
        probs = controller.probabilities()
        assert np.allclose(probs["fusion"], 1.0 / 7)
        assert np.allclose(probs["identity"], 1.0 / 3)
        assert np.allclose(probs["readout"], 1.0 / 6)


class TestDerivation:
    def test_derive_returns_argmax(self, controller):
        controller.alpha_fusion.data[2] = 5.0  # "max"
        controller.alpha_readout.data[0] = 5.0  # "sum"
        controller.alpha_identity.data[1, 2] = 5.0  # layer 1 -> trans_aug
        spec = controller.derive()
        assert spec.fusion == "max"
        assert spec.readout == "sum"
        assert spec.identity[1] == "trans_aug"

    def test_derive_layerwise_independent(self, controller):
        controller.alpha_identity.data[0, 0] = 3.0
        controller.alpha_identity.data[2, 1] = 3.0
        spec = controller.derive()
        assert spec.identity[0] == "zero_aug"
        assert spec.identity[2] == "identity_aug"


class TestLearning:
    def test_alpha_gradient_through_sample(self, controller, rng):
        s = controller.sample(tau=0.7, rng=rng)
        (s.fusion * np.arange(7.0)).sum().backward()
        assert controller.alpha_fusion.grad is not None

    def test_optimizing_alpha_shifts_distribution(self, controller):
        """Minimizing -phi[target] should concentrate mass on the target."""
        rng = np.random.default_rng(0)
        opt = Adam(controller.parameters(), lr=0.2)
        target = 4  # candidate "ppr"
        for _ in range(60):
            s = controller.sample(tau=0.7, rng=rng)
            loss = -s.fusion[target].log()
            opt.zero_grad()
            loss.backward()
            opt.step()
        probs = controller.probabilities()["fusion"]
        assert np.argmax(probs) == target
        assert probs[target] > 0.5
