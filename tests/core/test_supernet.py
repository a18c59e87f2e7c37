"""Tests for the weight-sharing supernet and derived models."""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE, FineTuneSpace, FineTuneStrategySpec
from repro.core.controller import SampledStrategy, StrategyController
from repro.core.supernet import DerivedModel, S2PGNNSupernet
from repro.gnn import GNNEncoder
from repro.nn import Tensor
from tests.oracles import spec_onehots


def make_supernet(space=DEFAULT_SPACE, layers=2, dim=12, tasks=2):
    enc = GNNEncoder("gin", num_layers=layers, emb_dim=dim, dropout=0.0, seed=0)
    return S2PGNNSupernet(enc, space, num_tasks=tasks, seed=0)


class TestSupernet:
    def test_forward_shapes(self, batch, rng):
        net = make_supernet()
        controller = StrategyController(DEFAULT_SPACE, 2)
        out = net.forward_full(batch, controller.sample(1.0, rng))
        assert out["logits"].shape == (batch.num_graphs, 2)
        assert len(out["layers"]) == 2

    def test_candidate_banks_sized_by_space(self):
        net = make_supernet()
        assert len(net.identity_banks) == 2
        assert len(net.identity_banks[0]) == 3
        assert len(net.fusion_bank) == 7
        assert len(net.readout_bank) == 6

    def test_degraded_space_shrinks_banks(self):
        net = make_supernet(space=DEFAULT_SPACE.without_fusion())
        assert len(net.fusion_bank) == 1

    def test_onehot_mixing_selects_single_candidate(self, batch):
        """With a one-hot weight vector the mixture equals that candidate."""
        net = make_supernet()
        net.eval()
        spec = FineTuneStrategySpec(
            identity=("zero_aug", "zero_aug"), fusion="mean", readout="sum"
        )
        one_hot = spec_onehots(spec, DEFAULT_SPACE, 2)
        out = net.forward_full(batch, one_hot)

        # Manually compute the same discrete path using the shared modules.
        h = net.encoder.embed_nodes(batch)
        layers = []
        for k in range(2):
            z = net.encoder.layer_step(h, batch, k)
            h = z  # zero_aug
            layers.append(h)
        fused = net.fusion_bank[3](layers)  # mean
        graph = net.readout_bank[0](fused, batch.batch, batch.num_graphs)  # sum
        expected = net.head(graph).data
        assert np.allclose(out["logits"].data, expected)

    def test_soft_mixture_differs_from_endpoints(self, batch):
        net = make_supernet()
        net.eval()
        spec_a = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                      fusion="last", readout="sum")
        spec_b = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                      fusion="last", readout="mean")
        out_a = net.forward_full(batch, spec_onehots(spec_a, DEFAULT_SPACE, 2))
        out_b = net.forward_full(batch, spec_onehots(spec_b, DEFAULT_SPACE, 2))
        mixed_weights = spec_onehots(spec_a, DEFAULT_SPACE, 2)
        mixed_weights.readout = Tensor(np.array([0.5, 0.5, 0, 0, 0, 0.0]))
        out_m = net.forward_full(batch, mixed_weights)
        assert np.allclose(
            out_m["graph"].data,
            0.5 * out_a["graph"].data + 0.5 * out_b["graph"].data,
        )

    def test_gradients_flow_only_to_weighted_candidates(self, batch):
        net = make_supernet()
        spec = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                    fusion="concat", readout="neural")
        out = net.forward_full(batch, spec_onehots(spec, DEFAULT_SPACE, 2))
        out["logits"].sum().backward()
        concat_grads = [p.grad for p in net.fusion_bank[1].parameters()]
        lstm_grads = [p.grad for p in net.fusion_bank[5].parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in concat_grads)
        assert all(g is None or np.abs(g).sum() == 0 for g in lstm_grads)

    def test_theta_parameters_nonempty(self):
        net = make_supernet()
        assert len(net.theta_parameters()) > 0


class TestDerivedModel:
    def test_forward_contract(self, batch):
        enc = GNNEncoder("gin", 2, 12, dropout=0.0, seed=0)
        spec = FineTuneStrategySpec(identity=("identity_aug", "trans_aug"),
                                    fusion="lstm", readout="set2set")
        model = DerivedModel(enc, spec, num_tasks=3)
        out = model.forward_full(batch)
        assert out["logits"].shape == (batch.num_graphs, 3)

    def test_spec_layer_mismatch_raises(self):
        enc = GNNEncoder("gin", 3, 12, dropout=0.0, seed=0)
        spec = FineTuneStrategySpec(identity=("zero_aug",), fusion="last", readout="mean")
        with pytest.raises(ValueError):
            DerivedModel(enc, spec, num_tasks=1)

    def test_vanilla_spec_matches_prediction_model(self, batch):
        """DerivedModel(last+mean+zero_aug) must equal the vanilla model."""
        from repro.gnn import GraphPredictionModel

        enc = GNNEncoder("gin", 2, 12, dropout=0.0, seed=0)
        spec = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                    fusion="last", readout="mean")
        derived = DerivedModel(enc, spec, num_tasks=1, seed=9)
        vanilla = GraphPredictionModel(enc, num_tasks=1, fusion="last",
                                       readout="mean", seed=9)
        # Align the fresh heads, then outputs must agree exactly.
        vanilla.head.weight.data = derived.head.weight.data.copy()
        vanilla.head.bias.data = derived.head.bias.data.copy()
        derived.eval(), vanilla.eval()
        assert np.allclose(derived(batch).data, vanilla(batch).data)

    def test_all_spec_combinations_forward(self, batch):
        enc = GNNEncoder("gin", 1, 12, dropout=0.0, seed=0)
        for ident in DEFAULT_SPACE.identity:
            for fuse in DEFAULT_SPACE.fusion:
                for read in DEFAULT_SPACE.readout:
                    spec = FineTuneStrategySpec(identity=(ident,), fusion=fuse, readout=read)
                    model = DerivedModel(enc, spec, num_tasks=1)
                    model.eval()
                    out = model(batch)
                    assert np.all(np.isfinite(out.data)), spec.describe()


class TestWarmStart:
    def test_load_from_supernet_copies_selected_candidates(self, batch):
        from repro.core.supernet import S2PGNNSupernet

        enc_a = GNNEncoder("gin", 2, 12, dropout=0.0, seed=0)
        supernet = S2PGNNSupernet(enc_a, DEFAULT_SPACE, num_tasks=2, seed=0)
        # Perturb the supernet so copies are distinguishable from fresh init.
        for p in supernet.parameters():
            p.data += 0.173

        spec = FineTuneStrategySpec(identity=("trans_aug", "identity_aug"),
                                    fusion="lstm", readout="set2set")
        enc_b = GNNEncoder("gin", 2, 12, dropout=0.0, seed=99)
        derived = DerivedModel(enc_b, spec, num_tasks=2, seed=99)
        derived.load_from_supernet(supernet)

        # Encoder copied exactly.
        for (_, pa), (_, pb) in zip(supernet.encoder.named_parameters(),
                                    derived.encoder.named_parameters()):
            assert np.array_equal(pa.data, pb.data)
        # Selected fusion candidate (lstm = index 5) copied exactly.
        src = dict(supernet.fusion_bank[5].named_parameters())
        for name, p in derived.fusion.named_parameters():
            assert np.array_equal(p.data, src[name].data)
        # Head copied (matching task width).
        assert np.array_equal(derived.head.weight.data, supernet.head.weight.data)

    def test_warm_start_matches_supernet_onehot_forward(self, batch):
        """Derived(spec) warm-started from the supernet must reproduce the
        supernet's one-hot forward for that spec exactly."""
        from repro.core.supernet import S2PGNNSupernet

        enc = GNNEncoder("gin", 2, 12, dropout=0.0, seed=0)
        supernet = S2PGNNSupernet(enc, DEFAULT_SPACE, num_tasks=1, seed=0)
        supernet.eval()
        spec = FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                                    fusion="mean", readout="sum")
        expected = supernet.forward_full(
            batch, spec_onehots(spec, DEFAULT_SPACE, 2)
        )["logits"].data

        derived = DerivedModel(GNNEncoder("gin", 2, 12, dropout=0.0, seed=7),
                               spec, num_tasks=1, seed=7)
        derived.load_from_supernet(supernet)
        derived.eval()
        assert np.allclose(derived(batch).data, expected)

    def test_task_width_mismatch_skips_head(self):
        from repro.core.supernet import S2PGNNSupernet

        enc = GNNEncoder("gin", 2, 12, dropout=0.0, seed=0)
        supernet = S2PGNNSupernet(enc, DEFAULT_SPACE, num_tasks=3, seed=0)
        spec = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                    fusion="last", readout="mean")
        derived = DerivedModel(GNNEncoder("gin", 2, 12, dropout=0.0, seed=1),
                               spec, num_tasks=5, seed=1)
        derived.load_from_supernet(supernet)  # must not raise
        assert derived.head.weight.shape == (12, 5)
