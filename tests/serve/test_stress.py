"""Concurrency stress: many threads hammering one ``InferenceServer``.

Tier-2 (``slow``) + ``stress`` marked.  Two configurations:

* **batch-of-one server** (``max_batch_size=1``): every request is its own
  micro-batch, so each response must be **bit-identical to the serial**
  ``service.predict([g], spec, batch_size=1)`` answer — the strongest
  possible parity statement, no float-noise carve-outs;
* **batching server**: micro-batch composition under concurrency is
  nondeterministic, but every ticket records the batch it was served in,
  so each response is verified bit-identical to a *serial replay* of that
  exact micro-batch through an independent reference service.

Both also assert the bookkeeping stayed consistent under load: no lost or
double-counted requests anywhere in the stack (router served/batches
counters, worker execution counts, registry hit/miss totals).

``pytest.ini`` enables ``faulthandler_timeout``, so a deadlock here fails
fast with thread stacks instead of hanging the suite.
"""

import threading

import numpy as np
import pytest

from repro.core.space import FineTuneStrategySpec
from repro.devtools.runtime import guard_serving_stack
from repro.gnn import GNNEncoder
from repro.serve import InferenceServer, InferenceService

pytestmark = [pytest.mark.slow, pytest.mark.stress]

SPECS = [
    FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                         fusion="last", readout="mean"),
    FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                         fusion="mean", readout="sum"),
    FineTuneStrategySpec(identity=("trans_aug", "identity_aug"),
                         fusion="concat", readout="max"),
]

NUM_THREADS = 8
REQUESTS_PER_THREAD = 40


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


def hammer(server, graphs, collect):
    """NUM_THREADS threads mixing submit-then-wait and synchronous predict."""
    failures = []

    def worker(tid):
        try:
            for i in range(REQUESTS_PER_THREAD):
                graph = graphs[(tid * 7 + i) % len(graphs)]
                spec = SPECS[(tid + i) % len(SPECS)]
                if i % 3 == 0:  # synchronous path
                    row = server.predict(graph, spec, timeout=60)
                    collect(tid, i, graph, spec, row, None)
                else:  # ticket path
                    ticket = server.submit(graph, spec)
                    row = ticket.wait(timeout=60)
                    collect(tid, i, graph, spec, row, ticket)
        except BaseException as err:
            failures.append(err)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(NUM_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


def test_batch_of_one_server_is_bit_identical_to_serial_predict(tiny_dataset):
    service = InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                               seed=0)
    reference = InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                                 seed=0)
    graphs = tiny_dataset.graphs
    serial = {(id(g), spec): reference.predict([g], spec, batch_size=1)[0]
              for g in graphs for spec in SPECS}

    results = []
    lock = threading.Lock()

    def collect(tid, i, graph, spec, row, ticket):
        with lock:
            results.append((graph, spec, row))

    server = InferenceServer(service, num_workers=4, max_batch_size=1,
                             max_delay=2, tick_interval_s=0.001,
                             queue_size=512)
    # Every interleaving the hammer explores also validates the
    # documented lock hierarchy (repro.devtools.locks) at runtime.  The
    # guard goes on before start(): it rebuilds the job-queue conditions.
    with guard_serving_stack(server, service), server:
        hammer(server, graphs, collect)
        stats = server.stats()

    total = NUM_THREADS * REQUESTS_PER_THREAD
    assert len(results) == total
    for graph, spec, row in results:
        assert np.array_equal(row, serial[(id(graph), spec)])

    # No lost or double-counted entries anywhere in the stack.
    router = stats["server_router"]
    assert router["served"] == total
    assert router["batches"] == total  # batch-of-one: one per request
    assert router["pending"] == 0
    assert sum(router["flushes"].values()) == router["batches"]
    assert stats["server"]["executed_batches"] == router["batches"]
    assert stats["server"]["worker_errors"] == 0
    models = stats["models"]
    assert models["models"] == len(SPECS)
    assert models["misses"] == len(SPECS)  # one build per spec, ever
    assert models["hits"] == router["batches"] - len(SPECS)


def test_batching_server_matches_serial_replay_of_each_micro_batch(tiny_dataset):
    service = InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                               seed=0)
    reference = InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                                 seed=0)
    graphs = tiny_dataset.graphs

    results = []
    lock = threading.Lock()

    def collect(tid, i, graph, spec, row, ticket):
        with lock:
            results.append((graph, spec, row, ticket))

    server = InferenceServer(service, num_workers=4, max_batch_size=8,
                             max_delay=3, tick_interval_s=0.001,
                             queue_size=512)
    with guard_serving_stack(server, service), server:
        hammer(server, graphs, collect)
        stats = server.stats()

    total = NUM_THREADS * REQUESTS_PER_THREAD
    assert len(results) == total
    router = stats["server_router"]
    assert router["served"] >= total  # + predict()'s piggybacked neighbours
    assert router["pending"] == 0
    assert sum(router["flushes"].values()) == router["batches"]
    assert stats["server"]["executed_batches"] == router["batches"]
    assert stats["server"]["worker_errors"] == 0

    # Bit-identical to the serial replay of each request's actual batch;
    # replays hit the reference's caches, so distinct batches only.
    replays = {}
    for graph, spec, row, ticket in results:
        if ticket is None:
            continue  # synchronous predicts verified via their tickets below
        key = (tuple(id(g) for g in ticket.batch_graphs), spec)
        if key not in replays:
            replays[key] = reference.predict(list(ticket.batch_graphs), spec,
                                             batch_size=len(ticket.batch_graphs))
        assert np.array_equal(row, replays[key][ticket.batch_index])
        assert ticket.batch_graphs[ticket.batch_index] is graph
        assert ticket.spec is spec
