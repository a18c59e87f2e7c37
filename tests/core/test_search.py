"""Tests for the bi-level search algorithm (paper Eq. 15-16)."""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_SPACE,
    S2PGNNSearcher,
    SearchConfig,
    random_search,
)
from repro.gnn import GNNEncoder


def make_encoder(seed=0):
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=seed)


class TestSearchConfig:
    def test_temperature_anneals_geometrically(self):
        cfg = SearchConfig(epochs=5, tau_start=1.0, tau_end=0.1)
        taus = [cfg.temperature(e) for e in range(5)]
        assert taus[0] == pytest.approx(1.0)
        assert taus[-1] == pytest.approx(0.1)
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_single_epoch_uses_end_temperature(self):
        assert SearchConfig(epochs=1).temperature(0) == SearchConfig().tau_end


class TestSearcher:
    @pytest.fixture(scope="class")
    def result(self, tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=3, batch_size=16, seed=0),
        )
        return searcher.search()

    def test_returns_valid_spec(self, result):
        spec = result.spec
        assert len(spec.identity) == 2
        assert spec.fusion in DEFAULT_SPACE.fusion
        assert spec.readout in DEFAULT_SPACE.readout

    def test_history_records_every_epoch(self, result):
        assert len(result.history) == 3
        for entry in result.history:
            assert {"epoch", "tau", "train_loss", "alpha_loss", "derived"} <= set(entry)

    def test_train_loss_improves(self, result):
        # Strategy resampling makes per-epoch losses noisy; require the best
        # later epoch to beat the first.
        losses = [h["train_loss"] for h in result.history]
        assert min(losses[1:]) < losses[0] + 0.05

    def test_search_is_deterministic(self, tiny_dataset):
        run = lambda: S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=2, batch_size=16, seed=5),
        ).search().spec
        assert run() == run()

    def test_seed_changes_trajectory(self, tiny_dataset):
        histories = []
        for seed in (0, 1):
            searcher = S2PGNNSearcher(
                make_encoder(), tiny_dataset,
                config=SearchConfig(epochs=2, batch_size=16, seed=seed),
            )
            histories.append(searcher.search().history[-1]["train_loss"])
        assert histories[0] != histories[1]

    def test_degraded_space_restricts_spec(self, tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            space=DEFAULT_SPACE.without_fusion(),
            config=SearchConfig(epochs=2, batch_size=16, seed=0),
        )
        assert searcher.search().spec.fusion == "last"

    def test_evaluate_spec_scores_without_training(self, tiny_dataset, result):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, batch_size=16, seed=0),
        )
        searcher.search()
        _, valid, _ = tiny_dataset.split()
        score = searcher.evaluate_spec(result.spec, valid)
        assert np.isfinite(score)

    def test_regression_dataset_supported(self, tiny_regression_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_regression_dataset,
            config=SearchConfig(epochs=2, batch_size=16, seed=0),
        )
        spec = searcher.search().spec
        assert spec.readout in DEFAULT_SPACE.readout


class TestEvalLoaderReuse:
    def test_eval_batch_size_respected(self, tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, eval_batch_size=16, seed=0),
        )
        _, valid, _ = tiny_dataset.split()
        loader = searcher._eval_loader(valid)
        assert loader.batch_size == 16

    def test_evaluate_spec_reuses_one_cached_loader(self, tiny_dataset):
        from repro.core.space import FineTuneStrategySpec

        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, batch_size=16, seed=0),
        )
        _, valid, _ = tiny_dataset.split()
        spec_a = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                      fusion="last", readout="mean")
        spec_b = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                      fusion="mean", readout="sum")
        searcher.evaluate_spec(spec_a, valid)
        searcher.evaluate_spec(spec_b, valid)
        loader = searcher._eval_loader(valid)
        # Scoring two candidates collated the split exactly once.
        assert loader.num_collations == len(loader)

    def test_derive_scores_every_candidate_in_one_sweep(self, tiny_dataset,
                                                        monkeypatch):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, eval_batch_size=16, seed=0),
        )
        _, valid, _ = tiny_dataset.split()
        sweeps = []
        forward_specs = searcher.supernet.forward_specs

        def spy(batch, specs):
            sweeps.append(list(specs))
            return forward_specs(batch, specs)

        monkeypatch.setattr(searcher.supernet, "forward_specs", spy)
        best = searcher._derive_by_validation(valid, np.random.default_rng(0))
        ranked = sweeps[0]
        assert len(ranked) > 1
        assert ranked == sorted(ranked, key=lambda s: s.describe())
        assert sweeps == [ranked] * len(searcher._eval_loader(valid))
        # The pick is the first best of the candidates scored one by one.
        scores = [searcher.evaluate_spec(spec, valid) for spec in ranked]
        assert best == ranked[int(np.argmax(scores))]

    def test_derive_on_degenerate_split_keeps_controller_argmax(self,
                                                                tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, seed=0),
        )
        best = searcher._derive_by_validation([], np.random.default_rng(0))
        assert best == searcher.controller.derive()

    def test_eval_loader_cache_bounded(self, tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, seed=0),
        )
        train, _, _ = tiny_dataset.split()
        capacity = searcher.batch_cache.capacity
        # Genuinely distinct graph sets (different members) stay bounded.
        for i in range(capacity + 2):
            searcher._eval_loader(train[i:i + 5])
        assert len(searcher.batch_cache) == capacity

    def test_eval_loader_shared_across_equal_content_lists(self, tiny_dataset):
        """dataset.split() builds a fresh list per call; the registry keys
        by member identity, so every phase still hits one shared loader."""
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, seed=0),
        )
        _, valid_a, _ = tiny_dataset.split()
        _, valid_b, _ = tiny_dataset.split()
        assert valid_a is not valid_b
        assert searcher._eval_loader(valid_a) is searcher._eval_loader(valid_b)


class TestReinitializeTheta:
    def test_draws_fresh_values_not_noise(self, tiny_dataset):
        """The no-weight-sharing ablation must reset candidate weights to
        fresh initializer draws, not add tiny noise to the trained values."""
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, batch_size=16, seed=0),
        )
        # Simulate training drift on a non-encoder parameter.
        name, param = next(
            (n, p) for n, p in searcher.supernet.named_parameters()
            if not n.startswith("encoder.") and p.data.size > 1
        )
        drifted = param.data + 37.0
        param.data = drifted.copy()
        searcher._reinitialize_theta(seed=123)
        # Fresh draw: far from the drifted value (N(0, 0.01) noise was ~0.01
        # away), and exactly what a fresh supernet initializes to.
        assert np.abs(param.data - drifted).max() > 1.0
        from repro.core.supernet import S2PGNNSupernet

        fresh = S2PGNNSupernet(searcher.supernet.encoder, searcher.space,
                               searcher.supernet.num_tasks, seed=123)
        assert np.array_equal(param.data, dict(fresh.named_parameters())[name].data)

    def test_encoder_untouched(self, tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, batch_size=16, seed=0),
        )
        before = {n: p.data.copy() for n, p in searcher.supernet.named_parameters()
                  if n.startswith("encoder.")}
        searcher._reinitialize_theta(seed=7)
        for n, p in searcher.supernet.named_parameters():
            if n.startswith("encoder."):
                assert np.array_equal(p.data, before[n])

    def test_deterministic_per_seed(self, tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, batch_size=16, seed=0),
        )
        searcher._reinitialize_theta(seed=5)
        after_first = {n: p.data.copy() for n, p in searcher.supernet.named_parameters()}
        searcher._reinitialize_theta(seed=5)
        for n, p in searcher.supernet.named_parameters():
            assert np.array_equal(p.data, after_first[n])


class TestRandomSearch:
    def test_returns_best_of_candidates(self, tiny_dataset):
        spec, score, results = random_search(
            make_encoder, tiny_dataset, num_candidates=3, finetune_epochs=2, seed=0,
        )
        assert len(results) == 3
        assert spec is not None
        assert score == max(s for _, s in results)  # roc_auc: higher better

    def test_random_search_deterministic(self, tiny_dataset):
        a = random_search(make_encoder, tiny_dataset, num_candidates=2,
                          finetune_epochs=1, seed=3)[0]
        b = random_search(make_encoder, tiny_dataset, num_candidates=2,
                          finetune_epochs=1, seed=3)[0]
        assert a == b


class TestStepTapes:
    """Each search step differentiates only what its optimizer updates:
    the theta step samples alpha off the tape, and the alpha step takes
    exactly the supernet's trainable parameters off it."""

    def test_each_step_grads_only_its_own_parameters(self, tiny_dataset,
                                                     monkeypatch):
        from repro.nn import Tensor
        from repro.nn.optim import Adam

        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=2, batch_size=16, seed=0))
        theta = {id(p) for p in searcher.supernet.theta_parameters()}
        alpha = {id(p) for p in searcher.controller.parameters()}
        received: set = set()
        steps = []
        accumulate, adam_step = Tensor._accumulate, Adam.step

        def spy_accumulate(self, grad):
            received.add(id(self))
            return accumulate(self, grad)

        def spy_step(self):
            steps.append((id(self.params[0]) in alpha, set(received)))
            received.clear()
            return adam_step(self)

        monkeypatch.setattr(Tensor, "_accumulate", spy_accumulate)
        monkeypatch.setattr(Adam, "step", spy_step)
        searcher.search()
        assert {is_alpha for is_alpha, _ in steps} == {True, False}
        for is_alpha, grads in steps:
            assert grads & (alpha if is_alpha else theta)
            assert not grads & (theta if is_alpha else alpha)

    def test_frozen_parameters_stay_frozen(self, tiny_dataset):
        searcher = S2PGNNSearcher(
            make_encoder(), tiny_dataset,
            config=SearchConfig(epochs=1, batch_size=16, seed=0))
        frozen = searcher.supernet.encoder.parameters()[0]
        frozen.requires_grad = False
        before = frozen.data.copy()
        trainable = searcher.supernet.theta_parameters()
        searcher.search()
        assert frozen.requires_grad is False
        np.testing.assert_array_equal(frozen.data, before)
        assert all(p.requires_grad for p in trainable)
        assert searcher.supernet.theta_parameters() == trainable
