"""Serving-layer tests: parity, cache registries, model registry, service.

The load-bearing contract is *serving parity*: logits served through the
persistent-model / shared-cache paths must be bit-identical to a fresh
``DerivedModel`` + uncached ``DataLoader`` forward — across several specs
and batch sizes.
"""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE
from repro.core.space import FineTuneStrategySpec
from repro.core.supernet import DerivedModel, S2PGNNSupernet
from repro.gnn import GNNEncoder
from repro.graph import DataLoader
from repro.nn import no_grad
from repro.serve import (
    BatchCacheRegistry,
    InferenceService,
    ModelRegistry,
    spec_key,
)

SPECS = [
    FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                         fusion="last", readout="mean"),
    FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                         fusion="mean", readout="sum"),
    FineTuneStrategySpec(identity=("trans_aug", "identity_aug"),
                         fusion="concat", readout="max"),
]


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


@pytest.fixture(scope="module")
def served(tiny_dataset):
    """A supernet + service over a labeled graph list."""
    graphs = tiny_dataset.graphs[:20]
    supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                              num_tasks=tiny_dataset.num_tasks, seed=0)
    service = InferenceService(factory, tiny_dataset.num_tasks,
                               supernet=supernet, batch_size=8, seed=0)
    return graphs, supernet, service


def cold_logits(supernet, spec, graphs, num_tasks, batch_size):
    """Reference path: fresh warm-started model + fresh uncached loader."""
    model = DerivedModel(factory(), spec, num_tasks, seed=0)
    model.load_from_supernet(supernet)
    model.eval()
    preds = []
    with no_grad():
        for batch in DataLoader(graphs, batch_size=batch_size):
            preds.append(model(batch).data.copy())
    return np.concatenate(preds, axis=0)


def copy_logits(model, spec, graphs, num_tasks, batch_size):
    """Reference path for a mutated model: a fresh model holding a copy of
    ``model``'s weights, run over a fresh uncached loader."""
    fresh = DerivedModel(factory(), spec, num_tasks, seed=0)
    fresh.load_state_dict(model.state_dict())
    fresh.eval()
    with no_grad():
        return np.concatenate([fresh(batch).data.copy() for batch in
                               DataLoader(graphs, batch_size=batch_size)])


class TestServingParity:
    @pytest.mark.parametrize("batch_size", [8, 64])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_predict_bit_identical_to_cold_path(self, served, tiny_dataset,
                                                spec, batch_size):
        graphs, supernet, service = served
        ref = cold_logits(supernet, spec, graphs, tiny_dataset.num_tasks,
                          batch_size)
        assert np.array_equal(service.predict(graphs, spec, batch_size), ref)
        # A repeated request runs the forward again and serves the same bits.
        assert np.array_equal(service.predict(graphs, spec, batch_size), ref)

    @pytest.mark.parametrize("batch_size", [8, 64])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_onehot_fast_path_bit_identical_to_cold_path(self, served,
                                                         tiny_dataset, spec,
                                                         batch_size):
        graphs, supernet, service = served
        ref = cold_logits(supernet, spec, graphs, tiny_dataset.num_tasks,
                          batch_size)
        got = service.predict_spec_onehot(graphs, spec, batch_size)
        assert np.array_equal(got, ref)

    def test_score_specs_matches_cold_scores(self, served, tiny_dataset):
        from repro.metrics import multitask_score_or_fallback

        graphs, supernet, service = served
        results = service.score_specs(SPECS, graphs,
                                      metric=tiny_dataset.info.metric,
                                      keep_logits=True)
        assert [r.spec for r in results] == SPECS
        trues = np.stack([g.y for g in graphs])
        for entry in results:
            ref = cold_logits(supernet, entry.spec, graphs,
                              tiny_dataset.num_tasks, service.batch_size)
            assert np.array_equal(entry.logits, ref)
            assert entry.score == multitask_score_or_fallback(
                trues, ref, tiny_dataset.info.metric)

    def test_score_specs_without_supernet_uses_derived_models(self, tiny_dataset):
        graphs = tiny_dataset.graphs[:12]
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        results = service.score_specs(SPECS[:2], graphs,
                                      metric=tiny_dataset.info.metric)
        assert len(results) == 2 and all(np.isfinite(r.score) for r in results)

    def test_onehot_without_supernet_raises(self, tiny_dataset):
        service = InferenceService(factory, tiny_dataset.num_tasks)
        with pytest.raises(RuntimeError):
            service.predict_spec_onehot(tiny_dataset.graphs[:4], SPECS[0])

    def test_empty_request_yields_zero_rows(self, served, tiny_dataset):
        graphs, _, service = served
        out = service.predict([], SPECS[0])
        assert out.shape == (0, tiny_dataset.num_tasks)
        out = service.predict_spec_onehot([], SPECS[0])
        assert out.shape == (0, tiny_dataset.num_tasks)
        # Scoring zero graphs is undefined (metrics need samples) and must
        # fail loudly rather than crash deep in concatenation.
        with pytest.raises(ValueError, match="empty graph list"):
            service.score_specs(SPECS, [])

    def test_score_specs_over_unlabeled_graphs_names_the_cause(self,
                                                               tiny_dataset):
        # Regression: DataLoader.labels concatenated each batch's y
        # unchecked, so unlabeled graphs surfaced as numpy's "zero-
        # dimensional arrays cannot be concatenated".
        graphs = [g.copy() for g in tiny_dataset.graphs[:4]]
        for graph in graphs:
            graph.y = None
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        with pytest.raises(ValueError, match="batch has no labels"):
            service.score_specs(SPECS[:1], graphs)

    def test_shared_empty_registries_are_respected(self, tiny_dataset):
        """Regression: registries define __len__, so a freshly created
        (empty, falsy) registry passed for sharing must still be used."""
        cache = BatchCacheRegistry()
        models = ModelRegistry(factory, tiny_dataset.num_tasks)
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   models=models, batch_cache=cache)
        assert service.models is models
        assert service.batch_cache is cache


class TestServiceBehavior:
    def test_modes_restored(self, served):
        graphs, supernet, service = served
        model = service.model_for(SPECS[0])
        model.train()
        supernet.train()
        service.predict(graphs, SPECS[0], 16)
        service.predict_spec_onehot(graphs, SPECS[0], 16)
        assert model.training and supernet.training
        model.eval()
        supernet.eval()
        service.predict(graphs, SPECS[0], 32)
        service.predict_spec_onehot(graphs, SPECS[0], 32)
        assert not model.training and not supernet.training

    def test_weight_mutation_reaches_next_response(self, served, tiny_dataset):
        """Responses are never memoized: after a weight mutation, the next
        list request serves the new weights, with no invalidation call.
        The routed counterpart lives in ``tests/serve/test_router.py``."""
        graphs, supernet, _ = served
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   supernet=supernet, batch_size=8, seed=0)
        spec, num_tasks = SPECS[1], tiny_dataset.num_tasks
        first = service.predict(graphs, spec, 16)
        # Responses are private arrays: mutating one changes nothing.
        expected = first.copy()
        first += 1e9
        assert np.array_equal(service.predict(graphs, spec, 16), expected)

        model = service.model_for(spec)
        model.head.weight.data = model.head.weight.data + 1.0
        mutated = service.predict(graphs, spec, 16)
        assert not np.array_equal(mutated, expected)
        assert np.array_equal(
            mutated, copy_logits(model, spec, graphs, num_tasks, 16))

    def test_stats_shape(self, served):
        _, _, service = served
        stats = service.stats()
        assert set(stats) == {"models", "batches", "logits", "compiled"}
        assert stats["batches"]["collations"] >= 1
        assert stats["compiled"]["state"] in (
            "available", "unavailable", "disabled")

    def test_from_tuner_serves_fitted_model(self, tiny_dataset):
        from repro.core import S2PGNNFineTuner, SearchConfig
        from repro.core.api import FineTuneConfig

        tuner = S2PGNNFineTuner(
            factory,
            search_config=SearchConfig(epochs=1, batch_size=16, seed=0),
            finetune_config=FineTuneConfig(epochs=1, patience=1),
        )
        with pytest.raises(RuntimeError):
            InferenceService.from_tuner(tuner)
        tuner.fit(tiny_dataset)
        service = InferenceService.from_tuner(tuner)
        assert service.batch_cache is tuner.batch_cache
        assert service.model_for(tuner.best_spec_) is tuner.model_
        graphs = tiny_dataset.graphs[:10]
        assert np.array_equal(service.predict(graphs, tuner.best_spec_),
                              tuner.predict(graphs))


class TestBatchCacheRegistry:
    def test_shared_across_equal_content_lists(self, molecules):
        registry = BatchCacheRegistry()
        a = registry.loader(molecules[:10], 4)
        b = registry.loader(list(molecules[:10]), 4)
        assert a is b
        assert registry.hits == 1 and registry.misses == 1

    def test_distinct_batch_sizes_are_distinct_entries(self, molecules):
        registry = BatchCacheRegistry()
        assert registry.loader(molecules[:10], 4) is not \
            registry.loader(molecules[:10], 8)

    def test_lru_eviction(self, molecules):
        registry = BatchCacheRegistry(capacity=2)
        a = registry.loader(molecules[:5], 4)
        registry.loader(molecules[5:10], 4)
        registry.loader(molecules[:5], 4)       # refresh a
        registry.loader(molecules[10:15], 4)    # evicts molecules[5:10]
        assert registry.loader(molecules[:5], 4) is a
        assert len(registry) == 2

    def test_invalidate_by_graphs(self, molecules):
        registry = BatchCacheRegistry()
        a = registry.loader(molecules[:5], 4)
        registry.loader(molecules[5:10], 4)
        registry.invalidate(molecules[2:3])
        assert registry.loader(molecules[:5], 4) is not a
        assert len(registry) == 2

    def test_collations_counter_monotonic_across_eviction(self, molecules):
        registry = BatchCacheRegistry(capacity=2)
        seen = 0
        for lo in range(0, 25, 5):  # 5 distinct sets through capacity 2
            list(registry.loader(molecules[lo:lo + 5], 2))
            total = registry.stats()["collations"]
            assert total >= seen
            seen = total
        assert seen == 5 * 3  # every set collated (3 batches each), none lost
        registry.invalidate()
        assert registry.stats()["collations"] == seen

    def test_warm_builds_plans(self, molecules):
        registry = BatchCacheRegistry()
        loader = registry.warm(molecules[:6], 3)
        for batch in loader.materialize():
            assert batch._edge_plan is not None
            assert batch._node_plan is not None

    def test_materialize_requires_cache_mode(self, molecules):
        with pytest.raises(RuntimeError):
            DataLoader(molecules[:4], batch_size=2).materialize()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BatchCacheRegistry(capacity=0)


class TestModelRegistry:
    def test_get_builds_once_and_hits(self):
        registry = ModelRegistry(factory, num_tasks=1)
        a = registry.get(SPECS[0])
        assert registry.get(SPECS[0]) is a
        assert registry.hits == 1 and registry.misses == 1

    def test_warm_start_from_supernet(self, tiny_dataset):
        supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                                  num_tasks=tiny_dataset.num_tasks, seed=0)
        registry = ModelRegistry(factory, tiny_dataset.num_tasks)
        model = registry.get(SPECS[0], supernet=supernet)
        ref = DerivedModel(factory(), SPECS[0], tiny_dataset.num_tasks, seed=0)
        ref.load_from_supernet(supernet)
        for (name, p), (_, q) in zip(sorted(model.named_parameters()),
                                     sorted(ref.named_parameters())):
            assert np.array_equal(p.data, q.data), name

    def test_lru_eviction(self):
        registry = ModelRegistry(factory, num_tasks=1, capacity=2)
        a = registry.get(SPECS[0])
        registry.get(SPECS[1])
        registry.get(SPECS[0])      # refresh
        registry.get(SPECS[2])      # evicts SPECS[1]
        assert SPECS[1] not in registry and SPECS[0] in registry
        assert registry.get(SPECS[0]) is a
        assert len(registry) == 2

    def test_externally_added_models_are_pinned(self):
        """A registered fine-tuned model carries weights the registry
        cannot rebuild; eviction must never silently replace it."""
        registry = ModelRegistry(factory, num_tasks=1, capacity=2)
        fitted = registry.get(SPECS[0])
        fitted.head.weight.data = fitted.head.weight.data + 5.0
        registry.add(SPECS[0], fitted)  # external add -> pinned
        registry.get(SPECS[1])
        registry.get(SPECS[2])  # evicts SPECS[1], not the pinned model
        assert registry.get(SPECS[0]) is fitted
        assert registry.stats()["pinned"] == 1

    def test_all_pinned_exceeds_capacity_rather_than_evicting(self):
        registry = ModelRegistry(factory, num_tasks=1, capacity=2)
        for spec in SPECS:
            registry.add(spec, registry._build(spec))
        assert len(registry) == 3
        assert all(spec in registry for spec in SPECS)

    def test_checkpoint_roundtrip(self, tmp_path):
        registry = ModelRegistry(factory, num_tasks=1)
        model = registry.get(SPECS[0])
        model.head.weight.data = model.head.weight.data + 3.0
        path = str(tmp_path / f"{spec_key(SPECS[0])}.npz")
        registry.save_checkpoint(SPECS[0], path)

        fresh = ModelRegistry(factory, num_tasks=1)
        loaded = fresh.load_checkpoint(SPECS[0], path)
        assert np.array_equal(loaded.head.weight.data, model.head.weight.data)

    def test_load_checkpoint_replaces_and_pins(self, tmp_path):
        """Checkpoint loading must register a *new pinned* model object —
        in-place mutation would change weights under a forward already
        running on the served model, and an unpinned one could be evicted
        and silently rebuilt without the checkpoint weights."""
        registry = ModelRegistry(factory, num_tasks=1, capacity=2)
        served_before = registry.get(SPECS[0])
        served_before.head.weight.data = served_before.head.weight.data + 3.0
        path = str(tmp_path / "ckpt.npz")
        registry.save_checkpoint(SPECS[0], path)

        loaded = registry.load_checkpoint(SPECS[0], path)
        assert loaded is not served_before
        assert registry.get(SPECS[0]) is loaded
        registry.get(SPECS[1])
        registry.get(SPECS[2])  # churn past capacity: pinned model survives
        assert registry.get(SPECS[0]) is loaded
        assert registry.stats()["pinned"] == 1

    def test_save_unknown_spec_raises(self, tmp_path):
        registry = ModelRegistry(factory, num_tasks=1)
        with pytest.raises(KeyError):
            registry.save_checkpoint(SPECS[0], str(tmp_path / "x.npz"))

    def test_spec_key_stable_and_distinct(self):
        assert spec_key(SPECS[0]) == spec_key(SPECS[0])
        assert spec_key(SPECS[0]) != spec_key(SPECS[1])

    def test_pinned_count_exact_under_churn(self):
        registry = ModelRegistry(factory, num_tasks=1, capacity=2)
        registry.add(SPECS[0], registry._build(SPECS[0]))
        for spec in SPECS[1:] * 2:  # unpinned models evict each other
            registry.get(spec)
        registry.add(SPECS[0], registry._build(SPECS[0]))  # re-registered
        assert registry.stats()["pinned"] == 1
        assert registry._pinned <= set(registry._models)


class TestSpecSweep:
    """``score_specs`` runs one prefix-shared sweep of the supernet
    (``S2PGNNSupernet.forward_specs``) for all its specs."""

    SWEEP_SPECS = [
        FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                             fusion="last", readout="mean"),
        FineTuneStrategySpec(identity=("zero_aug", "identity_aug"),
                             fusion="mean", readout="sum"),
        FineTuneStrategySpec(identity=("trans_aug", "identity_aug"),
                             fusion="concat", readout="max"),
        FineTuneStrategySpec(identity=("zero_aug", "trans_aug"),
                             fusion="lstm", readout="set2set"),
        FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                             fusion="max", readout="sort"),
        FineTuneStrategySpec(identity=("trans_aug", "trans_aug"),
                             fusion="ppr", readout="neural"),
        FineTuneStrategySpec(identity=("zero_aug", "identity_aug"),
                             fusion="mean", readout="sum"),  # duplicate of [1]
        FineTuneStrategySpec(identity=("identity_aug", "identity_aug"),
                             fusion="gpr", readout="mean"),
    ]

    @staticmethod
    def spy(monkeypatch, obj, name):
        """Count calls of ``obj.name`` (a bound method)."""
        calls = []
        original = getattr(obj, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(obj, name, counted)
        return calls

    def test_shared_prefix_runs_once_per_batch(self, tiny_dataset, monkeypatch):
        supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                                  num_tasks=tiny_dataset.num_tasks, seed=0)
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   supernet=supernet, batch_size=8, seed=0)
        graphs = tiny_dataset.graphs[:20]  # 3 batches of at most 8
        specs = [FineTuneStrategySpec(identity=("trans_aug", last),
                                      fusion="mean", readout="sum")
                 for last in DEFAULT_SPACE.identity]
        layer_steps = self.spy(monkeypatch, supernet.encoder, "layer_step")
        embeds = self.spy(monkeypatch, supernet.encoder, "embed_nodes")
        service.score_specs(specs, graphs, metric=tiny_dataset.info.metric)
        num_batches, num_layers = 3, supernet.encoder.num_layers
        assert len(embeds) == num_batches
        assert len(layer_steps) == num_layers * num_batches
        # Each batch: layer 0 and layer 1 once, under the one shared prefix.
        assert [args[2] for args in layer_steps] == [0, 1] * num_batches
        assert service.stats()["logits"]["misses"] == len(specs)

    @pytest.mark.parametrize("policy", [None, "float32"])
    def test_logits_bit_identical_to_derived_models(self, tiny_dataset, policy):
        supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                                  num_tasks=tiny_dataset.num_tasks, seed=0)
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   supernet=supernet, batch_size=8, seed=0,
                                   policy=policy)
        graphs = tiny_dataset.graphs[:20]
        results = service.score_specs(self.SWEEP_SPECS, graphs,
                                      metric=tiny_dataset.info.metric,
                                      keep_logits=True)
        assert [r.spec for r in results] == self.SWEEP_SPECS
        for entry in results:
            # ``predict`` serves the registry's DerivedModel, warm-started
            # from the service's (cast) supernet.
            ref = service.predict(graphs, entry.spec)
            assert entry.logits.dtype == ref.dtype
            assert np.array_equal(entry.logits, ref)
            if policy is None:
                assert np.array_equal(entry.logits, cold_logits(
                    supernet, entry.spec, graphs, tiny_dataset.num_tasks, 8))
        duplicate, original = results[6], results[1]
        assert duplicate.logits is not original.logits
        assert np.array_equal(duplicate.logits, original.logits)
        assert duplicate.score == original.score

    def test_repeated_call_recomputes(self, served, tiny_dataset):
        graphs, _, service = served
        before = service.stats()["logits"]["misses"]
        first = service.score_specs(SPECS, graphs, keep_logits=True)
        second = service.score_specs(SPECS, graphs, keep_logits=True)
        assert service.stats()["logits"]["misses"] == before + 2 * len(SPECS)
        for a, b in zip(first, second):
            assert a.logits is not b.logits
            assert np.array_equal(a.logits, b.logits)

    def test_no_specs_and_no_graphs(self, served):
        graphs, _, service = served
        assert service.score_specs([], graphs) == []
        for specs in ([], SPECS):
            with pytest.raises(ValueError, match="empty graph list"):
                service.score_specs(specs, [])


class TestSpecValidation:
    """A spec that does not fit the supernet is rejected before any
    forward, with the same message on every discrete-spec path."""

    DEEP = FineTuneStrategySpec(identity=("zero_aug",) * 3,
                                fusion="last", readout="mean")
    UNKNOWN = FineTuneStrategySpec(identity=("zero_aug", "nope"),
                                   fusion="last", readout="mean")
    BAD_FUSION = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                                      fusion="nope", readout="mean")

    @staticmethod
    def callers(tiny_dataset):
        from repro.core.search import S2PGNNSearcher, SearchConfig

        supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                                  num_tasks=tiny_dataset.num_tasks, seed=0)
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   supernet=supernet, batch_size=8, seed=0)
        searcher = S2PGNNSearcher(factory(), tiny_dataset,
                                  config=SearchConfig(epochs=1, seed=0))
        graphs = tiny_dataset.graphs[:12]
        return {
            "score_specs": lambda spec: service.score_specs(
                [SPECS[0], spec], graphs),
            "predict_spec_onehot": lambda spec: service.predict_spec_onehot(
                graphs, spec),
            "evaluate_spec": lambda spec: searcher.evaluate_spec(spec, graphs),
            "predict": lambda spec: service.predict(graphs, spec),
        }

    @pytest.mark.parametrize("caller", ["score_specs", "predict_spec_onehot",
                                        "evaluate_spec", "predict"])
    def test_wrong_depth_is_rejected(self, tiny_dataset, caller):
        with pytest.raises(ValueError,
                           match="spec has 3 identity choices for 2 layers"):
            self.callers(tiny_dataset)[caller](self.DEEP)

    @pytest.mark.parametrize("caller", ["score_specs", "predict_spec_onehot",
                                        "evaluate_spec"])
    def test_unknown_candidate_names_dimension_and_choices(self, tiny_dataset,
                                                           caller):
        run = self.callers(tiny_dataset)[caller]
        with pytest.raises(ValueError, match=(
                r"unknown identity candidate 'nope' in spec .*id=\[zero_aug,nope\]"
                r".*; allowed: zero_aug, identity_aug, trans_aug")):
            run(self.UNKNOWN)
        with pytest.raises(ValueError,
                           match="unknown fusion candidate 'nope'.*allowed: last"):
            run(self.BAD_FUSION)

    def test_rejected_before_any_forward(self, tiny_dataset, monkeypatch):
        supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                                  num_tasks=tiny_dataset.num_tasks, seed=0)
        embeds = TestSpecSweep.spy(monkeypatch, supernet.encoder, "embed_nodes")
        batch = next(iter(DataLoader(tiny_dataset.graphs[:8], batch_size=8)))
        with pytest.raises(ValueError):
            supernet.forward_specs(batch, [SPECS[0], self.DEEP])
        assert embeds == []
