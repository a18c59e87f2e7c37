"""Regression tests for the temperature-aware mix-threshold schedule.

The schedule must be a pure late-phase optimization: at ``tau_start``
(early epochs) the threshold equals the fixed base, so early-epoch mixing
— the exploration phase the relaxation's unbiasedness depends on — is
bit-for-bit unaffected; only as tau anneals may the threshold rise.
"""

import numpy as np

from repro.core import DEFAULT_SPACE
from repro.core.search import S2PGNNSearcher, SearchConfig
from repro.core.supernet import (
    MIX_SKIP_THRESHOLD,
    MIX_SKIP_THRESHOLD_FINAL,
    S2PGNNSupernet,
    skip_threshold,
)
from repro.gnn import GNNEncoder
from repro.graph import Batch


def make_supernet():
    enc = GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)
    return S2PGNNSupernet(enc, DEFAULT_SPACE, num_tasks=2, seed=0)


class TestSchedule:
    def test_early_epochs_keep_base_threshold(self):
        assert skip_threshold(1.0, 1.0, 0.1) == MIX_SKIP_THRESHOLD
        assert skip_threshold(1.5, 1.0, 0.1) == MIX_SKIP_THRESHOLD

    def test_final_threshold_at_tau_end(self):
        assert skip_threshold(0.1, 1.0, 0.1) == MIX_SKIP_THRESHOLD_FINAL
        assert skip_threshold(0.01, 1.0, 0.1) == MIX_SKIP_THRESHOLD_FINAL

    def test_monotone_in_annealing(self):
        taus = np.geomspace(1.0, 0.1, 7)
        thresholds = [skip_threshold(t, 1.0, 0.1) for t in taus]
        assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[0] == MIX_SKIP_THRESHOLD
        assert thresholds[-1] == MIX_SKIP_THRESHOLD_FINAL

    def test_degenerate_schedule_keeps_base(self):
        assert skip_threshold(0.5, 0.1, 0.1) == MIX_SKIP_THRESHOLD


class TestEarlyEpochMixingUnaffected:
    def test_forward_bit_identical_at_tau_start(self, molecules):
        """An epoch-0 update must not change a soft-mixture forward at all."""
        from repro.core.controller import StrategyController
        from repro.nn import no_grad

        batch = Batch(molecules[:6])
        net_a, net_b = make_supernet(), make_supernet()
        controller = StrategyController(DEFAULT_SPACE, 2)
        strategy = controller.sample(1.0, np.random.default_rng(5))
        net_b.mix_threshold = skip_threshold(1.0, 1.0, 0.1)  # epoch 0
        assert net_b.mix_threshold == net_a.mix_threshold
        with no_grad():
            out_a = net_a.forward_full(batch, strategy)["logits"].data
            out_b = net_b.forward_full(batch, strategy)["logits"].data
        assert np.array_equal(out_a, out_b)


class TestSearcherIntegration:
    def test_search_applies_schedule_and_records_it(self, tiny_dataset):
        encoder = GNNEncoder("gin", num_layers=2, emb_dim=8, dropout=0.0, seed=0)
        cfg = SearchConfig(epochs=2, batch_size=16, alpha_batches_per_epoch=1,
                           derive_candidates=0, seed=0)
        searcher = S2PGNNSearcher(encoder, tiny_dataset, config=cfg)
        result = searcher.search()
        recorded = [h["mix_threshold"] for h in result.history]
        assert recorded[0] == MIX_SKIP_THRESHOLD  # epoch 0: base threshold
        assert recorded[-1] == MIX_SKIP_THRESHOLD_FINAL  # tau_end reached
        assert searcher.supernet.mix_threshold == MIX_SKIP_THRESHOLD_FINAL
        assert result.spec is not None
