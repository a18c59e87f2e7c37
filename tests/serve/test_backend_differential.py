"""End-to-end differential test of the kernel legs.

The ``np.add.at`` references of the kernel ops live in
``tests/oracles.py``; the ``legacy`` kernel leg runs every op as its
reference.  The unit parity tests (`tests/nn/test_segment.py`,
`tests/gnn/test_segment_parity.py`) cover individual ops and modules;
this suite checks them end to end: a complete search +
fine-tune + serve run on every other kernel leg
(``tests.conftest.KERNEL_LEGS``: the registered ops with the C kernel
library forced off as ``reduceat``, and — where a C compiler exists —
running the C kernels as ``compiled``) must be **bit-identical** to the
legacy leg — identical search histories, derived specs, training losses,
validation trajectories, scores and served logits.

Bit-identity (not just tolerance) holds because every fast kernel
accumulates in the same order as its legacy counterpart: the plans' stable
sort preserves each segment's appearance order, the C loops and the CSR
matvec reduce rows sequentially, and max is order-exact.  Any future kernel change that
reorders floating-point accumulation will trip this suite.

Marked ``slow``: this is the tier-2 differential suite (run tier-1 with
``pytest -m "not slow"``).
"""

import numpy as np
import pytest

from repro.core import S2PGNNFineTuner, SearchConfig
from repro.core.api import FineTuneConfig
from repro.core.evolution import EvolutionConfig, EvolutionarySearcher
from repro.gnn import GNNEncoder
from tests.conftest import KERNEL_LEGS, kernel_leg

pytestmark = pytest.mark.slow

BACKENDS = KERNEL_LEGS
REFERENCE = "legacy"
FAST_BACKENDS = tuple(b for b in BACKENDS if b != REFERENCE)


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


def run_pipeline(dataset, backend: str) -> dict:
    """One full search + finetune + predict run under ``backend``."""
    with kernel_leg(backend):
        tuner = S2PGNNFineTuner(
            factory,
            search_config=SearchConfig(epochs=2, batch_size=16, seed=0),
            finetune_config=FineTuneConfig(epochs=2, patience=2),
            seed=0,
        )
        result = tuner.fit(dataset)
        logits = tuner.predict(dataset.graphs[:16])
    return {
        "search_history": tuner.search_result_.history,
        "spec": tuner.best_spec_,
        "train_losses": result.train_losses,
        "valid_history": result.valid_history,
        "valid_score": result.valid_score,
        "test_score": result.test_score,
        "best_epoch": result.best_epoch,
        "logits": logits,
    }


@pytest.fixture(scope="module")
def runs(tiny_dataset):
    return {backend: run_pipeline(tiny_dataset, backend)
            for backend in BACKENDS}


@pytest.mark.parametrize("backend", FAST_BACKENDS)
class TestEndToEndBackendParity:
    def test_derived_specs_identical(self, runs, backend):
        fast, legacy = runs[backend], runs[REFERENCE]
        assert fast["spec"] == legacy["spec"]

    def test_search_histories_bit_identical(self, runs, backend):
        fast, legacy = runs[backend], runs[REFERENCE]
        assert len(fast["search_history"]) == len(legacy["search_history"])
        for a, b in zip(fast["search_history"], legacy["search_history"]):
            assert a == b  # epoch, tau, threshold, losses, derived — exact

    def test_finetune_trajectories_bit_identical(self, runs, backend):
        fast, legacy = runs[backend], runs[REFERENCE]
        assert fast["train_losses"] == legacy["train_losses"]
        assert fast["valid_history"] == legacy["valid_history"]
        assert fast["best_epoch"] == legacy["best_epoch"]
        assert fast["valid_score"] == legacy["valid_score"]
        assert fast["test_score"] == legacy["test_score"]

    def test_served_logits_bit_identical(self, runs, backend):
        fast, legacy = runs[backend], runs[REFERENCE]
        assert np.array_equal(fast["logits"], legacy["logits"])


class TestEvolutionBackendParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_evolution_bit_identical(self, tiny_dataset, backend):
        def run(name):
            with kernel_leg(name):
                searcher = EvolutionarySearcher(
                    factory(), tiny_dataset,
                    config=EvolutionConfig(warmup_epochs=1, population_size=4,
                                           generations=2, seed=0),
                )
                return searcher.search()

        fast, legacy = run(backend), run(REFERENCE)
        assert fast.spec == legacy.spec
        assert fast.score == legacy.score
        assert fast.history == legacy.history


class TestServiceBackendParity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_spec_scoring_bit_identical(self, tiny_dataset, backend):
        from repro.core import DEFAULT_SPACE
        from repro.core.supernet import S2PGNNSupernet
        from repro.serve import InferenceService

        rng = np.random.default_rng(3)
        specs = [DEFAULT_SPACE.random_spec(2, rng) for _ in range(3)]
        graphs = tiny_dataset.graphs[:16]

        def run(name):
            with kernel_leg(name):
                supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                                          num_tasks=tiny_dataset.num_tasks,
                                          seed=0)
                service = InferenceService(factory, tiny_dataset.num_tasks,
                                           supernet=supernet, batch_size=8)
                return service.score_specs(specs, graphs,
                                           metric=tiny_dataset.info.metric,
                                           keep_logits=True)

        fast, legacy = run(backend), run(REFERENCE)
        for a, b in zip(fast, legacy):
            assert a.spec == b.spec
            assert a.score == b.score
            assert np.array_equal(a.logits, b.logits)


class TestServingPolicyDifferential:
    """PR 7's float32 serving policy against the float64 ground truth.

    Unlike the backend legs above, float32 cannot be bit-identical — the
    contract is toleranced logit parity and a bounded score delta, with
    the *same* full pipeline (search + fine-tune) providing the weights.
    The train path runs outside the policy and stays float64, so the two
    services serve the same fitted model; only the serving compute
    differs.
    """

    def test_fitted_model_served_under_float32_policy(self, tiny_dataset):
        from repro.serve import InferenceService

        tuner = S2PGNNFineTuner(
            factory,
            search_config=SearchConfig(epochs=2, batch_size=16, seed=0),
            finetune_config=FineTuneConfig(epochs=2, patience=2),
            seed=0,
        )
        tuner.fit(tiny_dataset)
        graphs = tiny_dataset.graphs[:32]
        spec = tuner.best_spec_

        ref = InferenceService.from_tuner(tuner).predict(graphs, spec)

        # A float32 serving deployment of the same fitted weights: fresh
        # dtype-set registry (casting a *copy* is the registry's documented
        # ownership contract — the tuner keeps training its float64 model).
        import copy

        f32 = InferenceService(tuner.encoder_factory, tuner.model_.num_tasks,
                               policy="float32", batch_size=16,
                               seed=tuner.seed)
        f32.models.add(spec, copy.deepcopy(tuner.model_))
        got = f32.predict(graphs, spec)

        assert got.dtype == np.float32
        assert ref.dtype == np.float64
        assert np.abs(got - ref).max() <= 1e-4
        pool_stats = f32.stats()["policy"]["workspace"]
        assert pool_stats["misses"] > 0  # the forward really ran pooled
