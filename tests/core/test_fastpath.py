"""Regression tests for the branch-skipping supernet fast path.

The fast path must be a pure optimization: for exactly-one-hot weights its
output matches (a) the full mixed forward and (b) a warm-started
DerivedModel, while sub-threshold candidate operators are *never invoked*.
"""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE, FineTuneStrategySpec
from repro.core.supernet import MIX_SKIP_THRESHOLD, DerivedModel, S2PGNNSupernet
from repro.gnn import GNNEncoder
from repro.nn import Tensor
from tests.oracles import spec_onehots


def make_supernet(layers=2, dim=12, tasks=2, dropout=0.0):
    enc = GNNEncoder("gin", num_layers=layers, emb_dim=dim, dropout=dropout, seed=0)
    return S2PGNNSupernet(enc, DEFAULT_SPACE, num_tasks=tasks, seed=0)


SPECS = [
    FineTuneStrategySpec(identity=("zero_aug", "identity_aug"),
                         fusion="mean", readout="sum"),
    FineTuneStrategySpec(identity=("trans_aug", "zero_aug"),
                         fusion="lstm", readout="set2set"),
    FineTuneStrategySpec(identity=("identity_aug", "identity_aug"),
                         fusion="concat", readout="neural"),
]


class TestFastPathEquivalence:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_onehot_fastpath_matches_full_mix(self, batch, spec):
        """Fast path == full mixture for exactly-one-hot weights (atol 1e-9)."""
        net = make_supernet()
        net.eval()
        one_hots = spec_onehots(spec, DEFAULT_SPACE, 2)
        fast = net.forward_full(batch, one_hots)["logits"].data
        net.mix_threshold = None
        full = net.forward_full(batch, one_hots)["logits"].data
        assert np.allclose(fast, full, atol=1e-9)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_onehot_fastpath_matches_derived_model(self, batch, spec):
        """Fast path == warm-started DerivedModel.forward_full (atol 1e-9)."""
        net = make_supernet()
        net.eval()
        one_hots = spec_onehots(spec, DEFAULT_SPACE, 2)
        fast = net.forward_full(batch, one_hots)

        derived = DerivedModel(GNNEncoder("gin", 2, 12, dropout=0.0, seed=5),
                               spec, num_tasks=2, seed=5)
        derived.load_from_supernet(net)
        derived.eval()
        ref = derived.forward_full(batch)
        assert np.allclose(fast["logits"].data, ref["logits"].data, atol=1e-9)
        assert np.allclose(fast["graph"].data, ref["graph"].data, atol=1e-9)

    def test_soft_weights_unaffected_by_threshold(self, batch, rng):
        """All-above-threshold soft mixtures are identical with and without
        the fast path (no branch qualifies for skipping)."""
        net = make_supernet()
        net.eval()
        spec = SPECS[0]
        weights = spec_onehots(spec, DEFAULT_SPACE, 2)
        soft = rng.random(len(DEFAULT_SPACE.readout)) + 0.1
        weights.readout = Tensor(soft / soft.sum())
        fast = net.forward_full(batch, weights)["logits"].data
        net.mix_threshold = None
        full = net.forward_full(batch, weights)["logits"].data
        assert np.array_equal(fast, full)


class TestForwardSpecsTraining:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_backward_matches_onehot_relaxed_forward(self, batch, spec):
        """A training step through ``forward_specs(batch, [spec])[0]`` is
        the one-hot relaxed forward's step, bit for bit: same logits, same
        ``.grad`` on every theta parameter, same running statistics.  Two
        identically seeded supernets (dropout on) keep the RNG streams
        aligned."""
        swept, relaxed = make_supernet(dropout=0.1), make_supernet(dropout=0.1)
        logits_a = swept.forward_specs(batch, [spec])[0]
        logits_b = relaxed.forward_full(
            batch, spec_onehots(spec, DEFAULT_SPACE, 2))["logits"]
        assert logits_a.data.tobytes() == logits_b.data.tobytes()
        (logits_a * logits_a).sum().backward()
        (logits_b * logits_b).sum().backward()

        params_a = dict(swept.named_parameters())
        params_b = dict(relaxed.named_parameters())
        assert params_a.keys() == params_b.keys()
        stepped = 0
        for name, param in params_a.items():
            grad_a, grad_b = param.grad, params_b[name].grad
            assert (grad_a is None) == (grad_b is None), name
            if grad_a is not None:
                stepped += 1
                assert grad_a.tobytes() == grad_b.tobytes(), name
        assert stepped > 0
        buffers_b = dict(relaxed.named_buffers())
        for name, buf in swept.named_buffers():
            assert buf.tobytes() == buffers_b[name].tobytes(), name


class TestBranchSkipping:
    def test_zero_weight_branches_never_called(self, batch):
        """Sub-threshold candidates are not even invoked (the fast-path
        contract), checked by booby-trapping every unselected candidate."""
        net = make_supernet()
        net.eval()
        spec = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                    fusion="last", readout="mean")
        selected = {
            id(net.fusion_bank[DEFAULT_SPACE.fusion.index("last")]),
            id(net.readout_bank[DEFAULT_SPACE.readout.index("mean")]),
        }
        for k in range(2):
            selected.add(id(net.identity_banks[k][DEFAULT_SPACE.identity.index("zero_aug")]))

        def boobytrap(module):
            def fail(*args, **kwargs):
                raise AssertionError("skipped branch was invoked")
            module.forward = fail

        for bank in [net.fusion_bank, net.readout_bank, *net.identity_banks]:
            for module in bank:
                if id(module) not in selected:
                    boobytrap(module)

        one_hots = spec_onehots(spec, DEFAULT_SPACE, 2)
        out = net.forward_full(batch, one_hots)  # must not raise
        assert np.all(np.isfinite(out["logits"].data))

        net.mix_threshold = None  # full mixture calls every branch
        with pytest.raises(AssertionError, match="skipped branch"):
            net.forward_full(batch, one_hots)

    def test_mix_accepts_tensors_and_thunks(self):
        weights = Tensor(np.array([0.0, 1.0]))
        a, b = Tensor(np.ones(3)), Tensor(np.full(3, 2.0))
        out = S2PGNNSupernet._mix(weights, [a, b])
        assert np.array_equal(out.data, b.data)
        out = S2PGNNSupernet._mix(weights, [lambda: a, lambda: b])
        assert np.array_equal(out.data, b.data)

    def test_all_zero_weights_fall_back_to_full_mixture(self):
        weights = Tensor(np.zeros(2))
        a, b = Tensor(np.ones(3)), Tensor(np.full(3, 2.0))
        out = S2PGNNSupernet._mix(weights, [a, b])
        assert np.array_equal(out.data, np.zeros(3))

    def test_threshold_default(self):
        assert make_supernet().mix_threshold == MIX_SKIP_THRESHOLD
