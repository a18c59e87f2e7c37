"""InferenceServer lifecycle, execution modes and shutdown contract.

Deterministic server tests run in **manual-tick mode**
(``tick_interval_s=None``): no background ticker means no wall-clock in
the loop, exactly like the router's simulated-clock test path.  A couple
of tests exercise the real ticker, asserting only liveness (a deadline
flush eventually fires), never timing.
"""

import threading

import numpy as np
import pytest

from repro.core.space import FineTuneStrategySpec
from repro.gnn import GNNEncoder
from repro.serve import InferenceServer, InferenceService
from repro.serve import server as server_module

SPEC_A = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                              fusion="last", readout="mean")
SPEC_B = FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                              fusion="mean", readout="sum")


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


@pytest.fixture
def service(tiny_dataset):
    return InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                            seed=0)


@pytest.fixture
def reference(tiny_dataset):
    return InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                            seed=0)


class TestLifecycle:
    def test_requires_start_and_rejects_double_start(self, tiny_dataset, service):
        server = InferenceServer(service, num_workers=1, tick_interval_s=None)
        with pytest.raises(RuntimeError, match="not started"):
            server.submit(tiny_dataset.graphs[0], SPEC_A)
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()

    def test_submit_after_stop_raises(self, tiny_dataset, service):
        server = InferenceServer(service, num_workers=1, tick_interval_s=None)
        with server:
            pass
        with pytest.raises(RuntimeError, match="stopped"):
            server.submit(tiny_dataset.graphs[0], SPEC_A)

    def test_stop_resolves_every_pending_ticket(self, tiny_dataset, service):
        server = InferenceServer(service, num_workers=2, max_batch_size=100,
                                 max_delay=10_000, tick_interval_s=None)
        with server:
            tickets = [server.submit(g, SPEC_A if i % 2 else SPEC_B)
                       for i, g in enumerate(tiny_dataset.graphs[:9])]
        # No flush, no ticks: stop() itself must flush + drain the queue.
        assert all(t.done for t in tickets)
        for t in tickets:
            assert t.result().shape == (tiny_dataset.num_tasks,)
        assert server.executed_batches == 2  # one micro-batch per spec
        assert not server.worker_errors

    def test_parameter_validation(self, service):
        with pytest.raises(ValueError):
            InferenceServer(service, num_workers=0)
        with pytest.raises(ValueError):
            InferenceServer(service, tick_interval_s=0.0)
        with pytest.raises(ValueError):
            InferenceServer(service, queue_size=0)

    def test_stop_is_idempotent(self, service):
        server = InferenceServer(service, num_workers=1, tick_interval_s=None)
        server.start()
        server.stop()
        server.stop()
        assert not server.running


class TestExecution:
    def test_flush_on_size_runs_on_workers(self, tiny_dataset, service,
                                           reference):
        graphs = tiny_dataset.graphs[:8]
        with InferenceServer(service, num_workers=2, max_batch_size=4,
                             max_delay=10_000, tick_interval_s=None) as server:
            tickets = [server.submit(g, SPEC_A) for g in graphs]
            rows = [t.wait(timeout=30) for t in tickets]
        ref = reference.predict(graphs[:4], SPEC_A, batch_size=4)
        for i in range(4):
            assert np.array_equal(rows[i], ref[i])
        assert server.executed_batches == 2
        assert server.router.flushes["size"] == 2

    def test_manual_tick_deadline_flush(self, tiny_dataset, service, reference):
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=3, tick_interval_s=None) as server:
            ticket = server.submit(tiny_dataset.graphs[0], SPEC_A)
            server.tick(2)
            assert not ticket.done  # age 2 < deadline: nothing dispatched
            server.tick(1)
            row = ticket.wait(timeout=30)
        ref = reference.predict([tiny_dataset.graphs[0]], SPEC_A, batch_size=1)
        assert np.array_equal(row, ref[0])
        assert server.router.flushes["deadline"] == 1

    def test_real_ticker_fires_deadline_flush(self, tiny_dataset, service,
                                              reference):
        """Liveness only: with a real-clock ticker, a lone sub-batch-size
        request resolves without anyone calling tick()/flush()."""
        with InferenceServer(service, num_workers=2, max_batch_size=100,
                             max_delay=2, tick_interval_s=0.001) as server:
            row = server.predict(tiny_dataset.graphs[1], SPEC_A, timeout=30)
        ref = reference.predict([tiny_dataset.graphs[1]], SPEC_A, batch_size=1)
        assert np.array_equal(row, ref[0])
        assert server.router.flushes["deadline"] >= 1
        assert server.router.flushes["forced"] == 0

    def test_predict_without_ticker_flushes_itself(self, tiny_dataset, service,
                                                   reference):
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=10_000, tick_interval_s=None) as server:
            row = server.predict(tiny_dataset.graphs[2], SPEC_A, timeout=30)
        ref = reference.predict([tiny_dataset.graphs[2]], SPEC_A, batch_size=1)
        assert np.array_equal(row, ref[0])

    def test_tickets_record_their_micro_batch(self, tiny_dataset, service):
        graphs = tiny_dataset.graphs[:4]
        with InferenceServer(service, num_workers=2, max_batch_size=4,
                             max_delay=10_000, tick_interval_s=None) as server:
            tickets = [server.submit(g, SPEC_A) for g in graphs]
            for t in tickets:
                t.wait(timeout=30)
        for i, t in enumerate(tickets):
            assert t.batch_graphs == tuple(graphs)
            assert t.batch_index == i

    def test_worker_error_reaches_ticket_and_counter(self, tiny_dataset,
                                                     failing_service):
        with InferenceServer(failing_service, num_workers=1, max_batch_size=1,
                             max_delay=10_000, tick_interval_s=None) as server:
            ticket = server.submit(tiny_dataset.graphs[0], SPEC_A)
            with pytest.raises(RuntimeError, match="micro-batch execution failed"):
                ticket.wait(timeout=30)
        assert len(server.worker_errors) == 1
        assert server.executed_batches == 0

    def test_worker_error_ring_bounds_memory_not_the_count(self, tiny_dataset,
                                                           failing_service,
                                                           monkeypatch):
        # Regression: worker_errors was an unbounded list — a failing
        # deployment pinned every exception (traceback and all) for the
        # life of the process.  The ring keeps the last K while stats()
        # still reports the true monotonic total.
        monkeypatch.setattr(server_module, "MAX_WORKER_ERRORS", 4)
        with InferenceServer(failing_service, num_workers=1, max_batch_size=1,
                             max_delay=10_000,
                             tick_interval_s=None) as server:
            tickets = [server.submit(g, SPEC_A)
                       for g in tiny_dataset.graphs[:6]]
            server.flush()
            for t in tickets:
                with pytest.raises(RuntimeError):
                    t.wait(timeout=30)
            stats = server.stats()
        assert len(server.worker_errors) == 4          # ring capacity
        assert server.worker_error_total == 6          # true count
        assert stats["server"]["worker_errors"] == 6
        assert stats["server"]["recent_worker_errors"] == 4

    def test_pre_execute_hook_runs_per_micro_batch(self, tiny_dataset, service):
        calls = []
        with InferenceServer(service, num_workers=1, max_batch_size=2,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=lambda: calls.append(1)) as server:
            for g in tiny_dataset.graphs[:6]:
                server.submit(g, SPEC_A)
            server.flush()
        assert len(calls) == server.executed_batches == 3


class TestStats:
    def test_stats_counters_consistent_after_load(self, tiny_dataset, service):
        graphs = tiny_dataset.graphs
        with InferenceServer(service, num_workers=3, max_batch_size=4,
                             max_delay=10_000, tick_interval_s=None) as server:
            tickets = [server.submit(graphs[i % len(graphs)],
                                     SPEC_A if i % 2 else SPEC_B)
                       for i in range(40)]
            server.flush()
            for t in tickets:
                t.wait(timeout=30)
            stats = server.stats()
        router = stats["server_router"]
        assert router["served"] == 40
        assert router["pending"] == 0
        assert sum(router["flushes"].values()) == router["batches"]
        assert stats["server"]["executed_batches"] == router["batches"]
        assert stats["server"]["worker_errors"] == 0
        assert stats["server"]["queue_depth"] == 0
