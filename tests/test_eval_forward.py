"""Every evaluator scores through the one eval sweep.

``evaluate_model`` (fine-tune validation), ``S2PGNNSearcher.evaluate_spec``
(search-time spec scoring), ``EvolutionarySearcher._fitness``,
``S2PGNNFineTuner.predict`` and ``InferenceService.predict`` /
``predict_spec_onehot`` (serving) run their forwards through
``repro.graph.loader.eval_logits``, under ``repro.nn.inference`` instead
of flipping ``Module.training``.  A forward that raises therefore cannot
leave a training model in eval mode, or grad recording switched off.  The
scoring evaluators share ``eval_score``, so they agree on one spec and
reject an empty graph list the same way.
"""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE, EvolutionarySearcher, S2PGNNFineTuner
from repro.core.search import S2PGNNSearcher, SearchConfig
from repro.core.supernet import S2PGNNSupernet
from repro.finetune import evaluate_model
from repro.gnn import GNNEncoder
from repro.nn import is_grad_enabled
from repro.serve import InferenceService

SPEC = DEFAULT_SPACE.random_spec(2, np.random.default_rng(0))


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=8, dropout=0.0, seed=0)


def boom(*args, **kwargs):
    raise RuntimeError("boom")


def evaluate_model_case(dataset, monkeypatch):
    model = InferenceService(factory, dataset.num_tasks).model_for(SPEC)
    monkeypatch.setattr(model, "forward", boom)
    return model, lambda: evaluate_model(model, dataset.graphs[:8], dataset.info)


def evaluate_spec_case(dataset, monkeypatch):
    searcher = S2PGNNSearcher(factory(), dataset,
                              config=SearchConfig(epochs=1, batch_size=16, seed=0))
    monkeypatch.setattr(searcher.supernet, "forward_specs", boom)
    return searcher.supernet, lambda: searcher.evaluate_spec(SPEC, dataset.graphs[:8])


def service_predict_case(dataset, monkeypatch):
    service = InferenceService(factory, dataset.num_tasks, batch_size=8)
    model = service.model_for(SPEC)
    monkeypatch.setattr(model, "forward", boom)
    return model, lambda: service.predict(dataset.graphs[:8], SPEC)


def evolution_fitness_case(dataset, monkeypatch):
    searcher = EvolutionarySearcher(factory(), dataset)
    monkeypatch.setattr(searcher.supernet, "forward_specs", boom)
    return searcher.supernet, lambda: searcher._fitness(SPEC, dataset.graphs[:8])


def predict_spec_onehot_case(dataset, monkeypatch):
    supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE, dataset.num_tasks)
    service = InferenceService(factory, dataset.num_tasks, supernet=supernet)
    monkeypatch.setattr(supernet, "forward_specs", boom)
    return supernet, lambda: service.predict_spec_onehot(dataset.graphs[:8], SPEC)


def tuner_predict_case(dataset, monkeypatch):
    tuner = S2PGNNFineTuner(factory)
    tuner.model_ = InferenceService(factory, dataset.num_tasks).model_for(SPEC)
    monkeypatch.setattr(tuner.model_, "forward", boom)
    return tuner.model_, lambda: tuner.predict(dataset.graphs[:8])


@pytest.mark.parametrize("case", [evaluate_model_case, evaluate_spec_case,
                                  evolution_fitness_case, service_predict_case,
                                  predict_spec_onehot_case, tuner_predict_case],
                         ids=["evaluate_model", "evaluate_spec",
                              "evolution_fitness", "service_predict",
                              "predict_spec_onehot", "tuner_predict"])
def test_raising_forward_leaves_train_mode_and_grad(case, tiny_dataset, monkeypatch):
    model, call = case(tiny_dataset, monkeypatch)
    model.train()
    with pytest.raises(RuntimeError, match="boom"):
        call()
    assert model.training
    assert is_grad_enabled()


def test_evolution_fitness_matches_evaluate_spec(tiny_dataset):
    searcher = S2PGNNSearcher(factory(), tiny_dataset)
    evolution = EvolutionarySearcher(factory(), tiny_dataset)
    evolution.supernet = searcher.supernet
    _, valid, _ = tiny_dataset.split()
    assert evolution._fitness(SPEC, valid) == searcher.evaluate_spec(SPEC, valid)


@pytest.mark.parametrize("score", [
    lambda dataset: evaluate_model(
        InferenceService(factory, dataset.num_tasks).model_for(SPEC), [],
        dataset.info),
    lambda dataset: S2PGNNSearcher(factory(), dataset).evaluate_spec(SPEC, []),
    lambda dataset: EvolutionarySearcher(factory(), dataset)._fitness(SPEC, []),
], ids=["evaluate_model", "evaluate_spec", "evolution_fitness"])
def test_empty_graph_list_raises(score, tiny_dataset):
    with pytest.raises(ValueError, match="empty graph list"):
        score(tiny_dataset)
