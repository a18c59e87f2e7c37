"""The evaluators' eval forwards leave the model exactly as they found it.

``evaluate_model`` (fine-tune validation), ``S2PGNNSearcher.evaluate_spec``
(search-time spec scoring) and ``InferenceService.predict`` (serving, via
``_eval_logits``) run their forwards under ``repro.nn.inference`` instead
of flipping ``Module.training``.  A forward that raises therefore cannot
leave a training model in eval mode, or grad recording switched off.
"""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE
from repro.core.search import S2PGNNSearcher, SearchConfig
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
    monkeypatch.setattr(searcher.supernet, "forward_full", boom)
    return searcher.supernet, lambda: searcher.evaluate_spec(SPEC, dataset.graphs[:8])


def service_predict_case(dataset, monkeypatch):
    service = InferenceService(factory, dataset.num_tasks, batch_size=8)
    model = service.model_for(SPEC)
    monkeypatch.setattr(model, "forward", boom)
    return model, lambda: service.predict(dataset.graphs[:8], SPEC)


@pytest.mark.parametrize("case", [evaluate_model_case, evaluate_spec_case,
                                  service_predict_case],
                         ids=["evaluate_model", "evaluate_spec", "service_predict"])
def test_raising_forward_leaves_train_mode_and_grad(case, tiny_dataset, monkeypatch):
    model, call = case(tiny_dataset, monkeypatch)
    model.train()
    with pytest.raises(RuntimeError, match="boom"):
        call()
    assert model.training
    assert is_grad_enabled()
