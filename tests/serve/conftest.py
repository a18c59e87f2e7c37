"""Serve-stack fixtures shared by the router, server and transport tests."""

import pytest

from repro.gnn import GNNEncoder
from repro.serve import InferenceService


@pytest.fixture
def failing_service(tiny_dataset):
    """A service whose ``predict`` raises: every routed micro-batch fails.

    Routers execute micro-batches through ``service.predict`` only, so
    this injects a failure into exactly the path the worker pool and the
    transports must survive.
    """
    service = InferenceService(
        lambda: GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0),
        tiny_dataset.num_tasks, batch_size=8, seed=0)

    def predict(graphs, spec, batch_size=None):
        raise RuntimeError("injected forward failure")

    service.predict = predict
    return service
