"""Inference memory plane, end to end through the serve stack (PR 7).

The contract has two legs:

* **registration-time casting** — a dtype-set :class:`ModelRegistry`
  casts frozen weights once, in place, when a model enters; checkpoints
  round-trip dtype-preservingly (the satellite-2 regression: loading a
  float32 serving checkpoint must not silently re-upcast to float64);
* **toleranced float32 parity** — a ``policy="float32"`` service tracks
  the float64 service within fixed numeric budgets, including a
  *committed accuracy delta* (:data:`ACCURACY_DELTA_BUDGET`) that the
  benchmark (``benchmarks/BENCH_memory_plane.json``) also records.
"""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE
from repro.core.space import FineTuneStrategySpec
from repro.core.supernet import DerivedModel, S2PGNNSupernet
from repro.gnn import GNNEncoder
from repro.nn import load_state_dict, use_dtype
from repro.serve import BatchCacheRegistry, InferenceService, ModelRegistry

SPECS = [
    FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                         fusion="last", readout="mean"),
    FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                         fusion="mean", readout="sum"),
]

#: |logit_f32 - logit_f64| bound for the tiny serving models below.  The
#: forward is a few dozen float32 matmuls/reductions over unit-scale
#: activations; observed deltas sit around 1e-6, so 1e-4 is ~100x slack
#: without ever masking a real dtype bug (which shows up at 1e-1+).
LOGIT_TOL = 1e-4

#: The committed serving-accuracy budget: |score_f32 - score_f64| on the
#: fixed-seed evaluation below.  Scores are metric outputs in [0, 1];
#: float32 serving moves them by <1e-5 here.  The benchmark snapshot
#: (BENCH_memory_plane.json) records the measured delta against the same
#: budget at full scale.
ACCURACY_DELTA_BUDGET = 1e-3


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


@pytest.fixture(scope="module")
def supernet(tiny_dataset):
    return S2PGNNSupernet(factory(), DEFAULT_SPACE,
                          num_tasks=tiny_dataset.num_tasks, seed=0)


def make_service(tiny_dataset, supernet, policy=None):
    return InferenceService(factory, tiny_dataset.num_tasks,
                            supernet=supernet, batch_size=8, seed=0,
                            policy=policy)


class TestRegistryDtypeCasting:
    def test_add_casts_frozen_weights_once(self, tiny_dataset):
        registry = ModelRegistry(factory, tiny_dataset.num_tasks,
                                 dtype="float32")
        model = DerivedModel(factory(), SPECS[0], tiny_dataset.num_tasks,
                             seed=0)
        model.parameters()[0].grad = np.zeros_like(
            model.parameters()[0].data)
        registry.add(SPECS[0], model)
        for _, param in model.named_parameters():
            assert param.data.dtype == np.float32
            assert param.grad is None
        for _, buf in model.named_buffers():
            assert buf.dtype == np.float32

    def test_built_models_are_cast(self, tiny_dataset):
        registry = ModelRegistry(factory, tiny_dataset.num_tasks,
                                 dtype="float32")
        model = registry.get(SPECS[0])
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_default_registry_preserves_float64(self, tiny_dataset):
        registry = ModelRegistry(factory, tiny_dataset.num_tasks)
        model = registry.get(SPECS[0])
        assert all(p.data.dtype == np.float64 for p in model.parameters())
        assert registry.stats()["dtype"] == "float64"

    def test_stats_report_serving_dtype(self, tiny_dataset):
        registry = ModelRegistry(factory, tiny_dataset.num_tasks,
                                 dtype="float32")
        assert registry.stats()["dtype"] == "float32"


class TestCheckpointDtypeRoundTrip:
    """Satellite 2: npz round-trips preserve parameter dtype."""

    def test_float32_checkpoint_survives_save_and_load(self, tiny_dataset,
                                                       tmp_path):
        registry = ModelRegistry(factory, tiny_dataset.num_tasks,
                                 dtype="float32")
        source = registry.get(SPECS[0])
        path = registry.save_checkpoint(SPECS[0], str(tmp_path / "m.npz"))

        # The raw state dict reloads as float32 — npz preserved the dtype.
        state = load_state_dict(path)
        float_arrays = [v for v in state.values() if v.dtype.kind == "f"]
        assert float_arrays and all(v.dtype == np.float32
                                    for v in float_arrays)

        # Loading into a float64 model adopts the checkpoint's dtype (the
        # historical behaviour force-upcast to float64, breaking the
        # "cast once at registration" economics).
        target = DerivedModel(factory(), SPECS[0], tiny_dataset.num_tasks,
                              seed=1)
        target.load_state_dict(state)
        for _, param in target.named_parameters():
            assert param.data.dtype == np.float32
        for (_, a), (_, b) in zip(source.named_parameters(),
                                  target.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_float64_checkpoints_stay_float64(self, tiny_dataset, tmp_path):
        registry = ModelRegistry(factory, tiny_dataset.num_tasks)
        registry.get(SPECS[0])
        path = registry.save_checkpoint(SPECS[0], str(tmp_path / "m64.npz"))
        state = load_state_dict(path)
        assert all(v.dtype == np.float64 for v in state.values()
                   if v.dtype.kind == "f")

    def test_registry_load_checkpoint_lands_in_serving_dtype(
            self, tiny_dataset, tmp_path):
        f64_registry = ModelRegistry(factory, tiny_dataset.num_tasks)
        f64_registry.get(SPECS[0])
        path = f64_registry.save_checkpoint(SPECS[0], str(tmp_path / "c.npz"))
        serving = ModelRegistry(factory, tiny_dataset.num_tasks,
                                dtype="float32")
        model = serving.load_checkpoint(SPECS[0], path)
        assert all(p.data.dtype == np.float32 for p in model.parameters())


class TestServingPolicyParity:
    @pytest.fixture(scope="class")
    def services(self, tiny_dataset, supernet):
        return (make_service(tiny_dataset, supernet),
                make_service(tiny_dataset, supernet, policy="float32"))

    def test_float32_logits_track_float64(self, services, tiny_dataset):
        f64, f32 = services
        graphs = tiny_dataset.graphs[:20]
        for spec in SPECS:
            ref = f64.predict(graphs, spec)
            got = f32.predict(graphs, spec)
            assert ref.dtype == np.float64
            assert got.dtype == np.float32
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= LOGIT_TOL

    def test_onehot_fast_path_under_policy(self, services, tiny_dataset):
        f64, f32 = services
        graphs = tiny_dataset.graphs[:20]
        ref = f64.predict_spec_onehot(graphs, SPECS[0])
        got = f32.predict_spec_onehot(graphs, SPECS[0])
        assert got.dtype == np.float32
        assert np.abs(got - ref).max() <= LOGIT_TOL

    def test_accuracy_delta_within_committed_budget(self, services,
                                                    tiny_dataset):
        f64, f32 = services
        graphs = tiny_dataset.graphs[:40]
        metric = tiny_dataset.info.metric
        ref = f64.score_specs(SPECS, graphs, metric=metric)
        got = f32.score_specs(SPECS, graphs, metric=metric)
        for a, b in zip(ref, got):
            assert a.spec == b.spec
            assert abs(a.score - b.score) <= ACCURACY_DELTA_BUDGET

    def test_stats_expose_the_policy(self, services):
        f64, f32 = services
        assert "policy" not in f64.stats()
        policy = f32.stats()["policy"]
        # Kernels allocate plainly; the zero counters stay for readers
        # of the old stats shape.
        assert policy == {"dtype": "float32",
                          "workspace": {"hits": 0, "misses": 0}}


class TestAttachedSupernetCast:
    """A float32 service scores on a private float32 copy of its supernet."""

    def test_onehot_is_bit_identical_to_registry_model(self, tiny_dataset,
                                                       supernet):
        # Uncast, the one-hot forward mixes float32 activations with
        # float64 weights and drifts from the registry's cast model.
        service = make_service(tiny_dataset, supernet, policy="float32")
        graphs = tiny_dataset.graphs[:40]
        for spec in SPECS:
            onehot = service.predict_spec_onehot(graphs, spec)
            derived = service.predict(graphs, spec)
            assert onehot.dtype == derived.dtype == np.float32
            assert np.array_equal(onehot, derived)

    def test_copy_is_cast_at_init_and_attach(self, tiny_dataset, supernet):
        service = make_service(tiny_dataset, supernet, policy="float32")
        first = service.supernet
        service.attach_supernet(supernet)
        for held in (first, service.supernet):
            assert held is not supernet
            assert all(p.data.dtype == np.float32 for p in held.parameters())
            assert all(b.dtype == np.float32 for _, b in held.named_buffers()
                       if b.dtype.kind == "f")
        assert service.supernet is not first

    def test_callers_supernet_is_untouched(self, tiny_dataset, supernet):
        param = supernet.parameters()[0]
        param.grad = np.ones_like(param.data)
        before = {name: p.data.copy() for name, p in supernet.named_parameters()}
        try:
            service = make_service(tiny_dataset, supernet, policy="float32")
            service.attach_supernet(supernet)
            for name, p in supernet.named_parameters():
                assert p.data.dtype == np.float64
                assert np.array_equal(p.data, before[name])
            assert np.array_equal(param.grad, np.ones_like(param.data))
        finally:
            param.grad = None

    def test_default_policy_holds_the_same_object(self, tiny_dataset,
                                                  supernet):
        service = make_service(tiny_dataset, supernet)
        assert service.supernet is supernet
        assert service.attach_supernet(supernet).supernet is supernet


class TestBatchCacheDtypeKeying:
    def test_loaders_are_separated_by_policy_dtype(self, tiny_dataset):
        cache = BatchCacheRegistry()
        graphs = tiny_dataset.graphs[:12]
        loader64 = cache.loader(graphs, 8)
        with use_dtype("float32"):
            loader32 = cache.loader(graphs, 8)
            assert loader32 is not loader64
            assert cache.loader(graphs, 8) is loader32  # hit within dtype
        assert cache.loader(graphs, 8) is loader64

    def test_batches_snapshot_their_collation_dtype(self, tiny_dataset):
        cache = BatchCacheRegistry()
        graphs = tiny_dataset.graphs[:12]
        batch64 = next(iter(cache.loader(graphs, 8)))
        with use_dtype("float32"):
            batch32 = next(iter(cache.loader(graphs, 8)))
        assert batch64.y.dtype == np.float64
        assert batch32.y.dtype == np.float32
        # Immutable after collation: re-reading outside the policy scope
        # must serve the snapshot, not re-materialize.
        assert next(iter(cache.loader(graphs, 8))).y.dtype == np.float64

    def test_invalidate_matches_members_with_dtype_key(self, tiny_dataset):
        cache = BatchCacheRegistry()
        graphs = tiny_dataset.graphs[:12]
        cache.loader(graphs, 8)
        with use_dtype("float32"):
            cache.loader(graphs, 8)
        assert len(cache) == 2
        cache.invalidate(graphs[:1])  # member-id slot sits after the dtype
        assert len(cache) == 0
