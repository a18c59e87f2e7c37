"""Serve-stack fixtures shared by the router, server and transport tests."""

import threading

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


class Gate:
    """An ``InferenceServer`` ``pre_execute`` hook holding workers busy.

    Servers dispatch work-conserving: an idle worker takes a request at
    once.  A test that needs requests to stay queued (to see a size,
    deadline or forced flush, or an error path) first occupies every
    worker with :meth:`hold`, then releases them with :meth:`open`.
    The hold is bounded, so a failing test cannot hang ``stop()``.
    """

    TIMEOUT_S = 30.0

    def __init__(self):
        self._entered = threading.Semaphore(0)
        self._open = threading.Event()

    def __call__(self):
        self._entered.release()
        self._open.wait(self.TIMEOUT_S)

    def hold(self, server, graph, spec) -> list:
        """Submit one request per worker; return once each worker holds
        one at the gate.  Returns the holding tickets."""
        tickets = []
        for _ in range(server.num_workers):
            tickets.append(server.submit(graph, spec))
            assert self._entered.acquire(timeout=self.TIMEOUT_S), \
                "no worker reached the gate"
        return tickets

    def open(self):
        self._open.set()


@pytest.fixture
def gate():
    gate = Gate()
    yield gate
    gate.open()
