"""Finite-difference gradient checks through entire GNN modules.

The unit gradchecks in ``tests/nn`` cover primitives; these verify that the
*composed* adjoints of whole convolution layers, fusion modules, and
readouts are exact with respect to their node-feature inputs — the
gradients the search algorithm actually consumes.
"""

import numpy as np
import pytest

from repro.gnn import make_conv, make_fusion, make_readout
from repro.graph import Batch, MoleculeGenerator
from repro.nn import Tensor
from tests.conftest import gradcheck


@pytest.fixture(scope="module")
def small_batch():
    return Batch(MoleculeGenerator(num_scaffolds=4, seed=21).generate_many(2))


DIM = 6


class TestConvGradients:
    @pytest.mark.parametrize("conv_type", ["gin", "gcn", "sage", "gat"])
    def test_conv_input_gradient_exact(self, conv_type, small_batch):
        rng = np.random.default_rng(3)
        conv = make_conv(conv_type, DIM, rng)
        conv.eval()
        h0 = np.random.default_rng(4).normal(size=(small_batch.num_nodes, DIM))

        def fn(h):
            return (conv(h, small_batch.edge_index, small_batch.edge_attr) ** 2).sum()

        gradcheck(fn, h0.copy(), tol=1e-4)

    def test_gin_eps_gradient_exact(self, small_batch):
        rng = np.random.default_rng(5)
        conv = make_conv("gin", DIM, rng)
        conv.eval()
        h = Tensor(np.random.default_rng(6).normal(size=(small_batch.num_nodes, DIM)))
        out = (conv(h, small_batch.edge_index, small_batch.edge_attr) ** 2).sum()
        out.backward()
        analytic = conv.eps.grad.copy()

        eps = 1e-6
        orig = conv.eps.data.copy()
        conv.eps.data = orig + eps
        hi = (conv(h, small_batch.edge_index, small_batch.edge_attr).data ** 2).sum()
        conv.eps.data = orig - eps
        lo = (conv(h, small_batch.edge_index, small_batch.edge_attr).data ** 2).sum()
        conv.eps.data = orig
        assert abs(analytic[0] - (hi - lo) / (2 * eps)) < 1e-4


class TestFusionGradients:
    @pytest.mark.parametrize("name", ["concat", "max", "mean", "ppr", "lstm", "gpr"])
    def test_fusion_input_gradient_exact(self, name):
        rng = np.random.default_rng(7)
        fusion = make_fusion(name, 3, DIM, rng)
        base = [np.random.default_rng(8 + i).normal(size=(5, DIM)) for i in range(3)]

        # Check gradient with respect to the middle layer's representation.
        def fn(h):
            layers = [Tensor(base[0]), h, Tensor(base[2])]
            return (fusion(layers) ** 2).sum()

        gradcheck(fn, base[1].copy(), tol=1e-4)


class TestReadoutGradients:
    @pytest.mark.parametrize("name", ["sum", "mean", "max", "set2set", "neural"])
    def test_readout_input_gradient_exact(self, name):
        rng = np.random.default_rng(9)
        readout = make_readout(name, DIM, rng)
        h0 = np.random.default_rng(10).normal(size=(7, DIM))
        batch_vec = np.array([0, 0, 0, 1, 1, 1, 1])

        def fn(h):
            return (readout(h, batch_vec, 2) ** 2).sum()

        gradcheck(fn, h0.copy(), tol=1e-4)

    def test_sortpool_gradient_exact_away_from_ties(self):
        # SortPool's selection is discrete; the gradient is exact as long as
        # the perturbation does not change the ordering, so use well-
        # separated sort-channel values.
        rng = np.random.default_rng(11)
        readout = make_readout("sort", DIM, rng)
        h0 = np.random.default_rng(12).normal(size=(6, DIM))
        h0[:, -1] = np.linspace(-3, 3, 6)  # distinct sort keys
        batch_vec = np.array([0, 0, 0, 1, 1, 1])

        def fn(h):
            return (readout(h, batch_vec, 2) ** 2).sum()

        gradcheck(fn, h0.copy(), tol=1e-4)


class TestSupernetMixtureGradients:
    def test_mixture_weight_gradient_exact(self, small_batch):
        """d loss / d (mixing weight) equals the candidate-output difference."""
        from repro.core import DEFAULT_SPACE
        from repro.core.supernet import S2PGNNSupernet
        from repro.core.space import FineTuneStrategySpec
        from repro.gnn import GNNEncoder
        from tests.oracles import spec_onehots

        enc = GNNEncoder("gin", 2, DIM, dropout=0.0, seed=0)
        # Disable branch skipping: the full mixture must have exact
        # gradients in *every* weight, including exactly-zero ones (the
        # fast path intentionally truncates those to zero instead).
        net = S2PGNNSupernet(enc, DEFAULT_SPACE, num_tasks=1, seed=0)
        net.mix_threshold = None
        net.eval()
        spec = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                    fusion="last", readout="mean")
        weights = spec_onehots(spec, DEFAULT_SPACE, 2)
        w0 = np.array([0.6, 0.4, 0.0, 0.0, 0.0, 0.0])

        def loss_for(w):
            weights.readout = Tensor(w) if not isinstance(w, Tensor) else w
            return net.forward_full(small_batch, weights)["logits"].sum()

        w = Tensor(w0.copy(), requires_grad=True)
        loss_for(w).backward()
        analytic = w.grad.copy()

        eps = 1e-6
        numeric = np.zeros_like(w0)
        for i in range(len(w0)):
            hi = w0.copy(); hi[i] += eps
            lo = w0.copy(); lo[i] -= eps
            numeric[i] = (loss_for(hi).item() - loss_for(lo).item()) / (2 * eps)
        assert np.abs(analytic - numeric).max() < 1e-5

        # Fast path: gradients in the *active* (above-threshold) weights
        # are unchanged; skipped branches contribute exactly zero.
        net.mix_threshold = 1e-8
        w_fast = Tensor(w0.copy(), requires_grad=True)
        loss_for(w_fast).backward()
        active = w0 > 1e-8
        assert np.allclose(w_fast.grad[active], analytic[active])
        assert np.all(w_fast.grad[~active] == 0.0)
