"""InferenceServer lifecycle, execution modes and shutdown contract.

Deterministic server tests run in **manual-tick mode**
(``tick_interval_s=None``): no background ticker means no wall-clock in
the loop, exactly like the router's simulated-clock test path.  A couple
of tests exercise the real ticker, asserting only liveness (a deadline
flush eventually fires), never timing.

Dispatch is work-conserving — an idle worker takes a request at once —
so tests that need requests to stay queued first occupy every worker
with the ``gate`` fixture's ``pre_execute`` hook.
"""

import itertools
import sys
import threading
import time

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
SPEC_C = FineTuneStrategySpec(identity=("identity_aug", "identity_aug"),
                              fusion="last", readout="max")


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

    def test_stop_resolves_every_pending_ticket(self, tiny_dataset, service,
                                                gate):
        server = InferenceServer(service, num_workers=2, max_batch_size=100,
                                 max_delay=10_000, tick_interval_s=None,
                                 pre_execute=gate)
        server.start()
        held = gate.hold(server, tiny_dataset.graphs[9], SPEC_A)
        tickets = [server.submit(g, SPEC_A if i % 2 else SPEC_B)
                   for i, g in enumerate(tiny_dataset.graphs[:9])]
        # No flush, no ticks: stop() is called with both buckets pending
        # and must not return before the workers have drained them.
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        assert server._stop_event.wait(30)
        gate.open()
        stopper.join(30)
        assert not stopper.is_alive()
        assert all(t.done for t in held + tickets)
        for t in tickets:
            assert t.result().shape == (tiny_dataset.num_tasks,)
        # two held requests, then one micro-batch per spec
        assert server.executed_batches == 4
        assert server.router.pending == 0
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
                                           reference, gate):
        graphs = tiny_dataset.graphs[:8]
        with InferenceServer(service, num_workers=2, max_batch_size=4,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=gate) as server:
            gate.hold(server, tiny_dataset.graphs[8], SPEC_B)
            tickets = [server.submit(g, SPEC_A) for g in graphs]
            assert server.router.flushes["size"] == 2  # both while held
            gate.open()
            rows = [t.wait(timeout=30) for t in tickets]
        for half in (0, 4):
            ref = reference.predict(graphs[half:half + 4], SPEC_A, batch_size=4)
            for i in range(4):
                assert np.array_equal(rows[half + i], ref[i])
        assert server.executed_batches == 4  # two held + two size flushes
        assert server.router.flushes["size"] == 2

    def test_manual_tick_deadline_flush(self, tiny_dataset, service, reference,
                                        gate):
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=3, tick_interval_s=None,
                             pre_execute=gate) as server:
            gate.hold(server, tiny_dataset.graphs[1], SPEC_B)
            ticket = server.submit(tiny_dataset.graphs[0], SPEC_A)
            server.tick(2)
            # age 2 < deadline: nothing dispatched
            assert server.router.pending == 1
            assert server.router.flushes["deadline"] == 0
            server.tick(1)
            assert server.router.pending == 0
            gate.open()
            row = ticket.wait(timeout=30)
        ref = reference.predict([tiny_dataset.graphs[0]], SPEC_A, batch_size=1)
        assert np.array_equal(row, ref[0])
        assert server.router.flushes["deadline"] == 1

    def test_real_ticker_fires_deadline_flush(self, tiny_dataset, service,
                                              reference, gate):
        """Liveness only: with a real-clock ticker and every worker busy,
        a lone sub-batch-size request is flushed on its deadline without
        anyone calling tick()/flush()."""
        with InferenceServer(service, num_workers=2, max_batch_size=100,
                             max_delay=2, tick_interval_s=0.001,
                             pre_execute=gate) as server:
            gate.hold(server, tiny_dataset.graphs[0], SPEC_B)
            ticket = server.submit(tiny_dataset.graphs[1], SPEC_A)
            give_up = time.monotonic() + 30
            while server.router.pending and time.monotonic() < give_up:
                time.sleep(0.001)
            gate.open()
            row = ticket.wait(timeout=30)
        ref = reference.predict([tiny_dataset.graphs[1]], SPEC_A, batch_size=1)
        assert np.array_equal(row, ref[0])
        assert server.router.flushes["deadline"] >= 1
        assert server.router.flushes["forced"] == 0

    def test_predict_without_ticker_flushes_itself(self, tiny_dataset, service,
                                                   reference):
        """Without a ticker nothing fires a deadline: the idle worker
        takes the lone request itself."""
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=10_000, tick_interval_s=None) as server:
            row = server.predict(tiny_dataset.graphs[2], SPEC_A, timeout=30)
        ref = reference.predict([tiny_dataset.graphs[2]], SPEC_A, batch_size=1)
        assert np.array_equal(row, ref[0])
        assert server.router.flushes["idle"] == 1

    def test_tickets_record_their_micro_batch(self, tiny_dataset, service,
                                              gate):
        graphs = tiny_dataset.graphs[:4]
        with InferenceServer(service, num_workers=2, max_batch_size=4,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=gate) as server:
            gate.hold(server, tiny_dataset.graphs[4], SPEC_B)
            tickets = [server.submit(g, SPEC_A) for g in graphs]
            gate.open()
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

    def test_failed_take_leaves_the_worker_serving(self, tiny_dataset,
                                                   service, monkeypatch):
        # Regression: an exception from _next_job killed the worker
        # thread; with every worker dead, requests waited out their
        # timeouts.
        server = InferenceServer(service, num_workers=1, max_batch_size=1,
                                 max_delay=10_000, tick_interval_s=None)
        take_oldest, raised = server.router.take_oldest, []

        def take_oldest_failing_once():
            if not raised:
                raised.append(True)
                raise RuntimeError("take_oldest failed")
            return take_oldest()

        monkeypatch.setattr(server.router, "take_oldest",
                            take_oldest_failing_once)
        with server:
            logits = server.predict(tiny_dataset.graphs[0], SPEC_A, timeout=5)
            stats = server.stats()
        assert raised == [True]
        assert logits.shape == (tiny_dataset.num_tasks,)
        assert stats["server"]["worker_errors"] == 1
        assert stats["server"]["executed_batches"] == 1

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

    def test_pre_execute_hook_runs_per_micro_batch(self, tiny_dataset, service,
                                                   gate):
        calls = []

        def pre_execute():
            calls.append(1)
            gate()

        with InferenceServer(service, num_workers=1, max_batch_size=2,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=pre_execute) as server:
            gate.hold(server, tiny_dataset.graphs[6], SPEC_B)
            for g in tiny_dataset.graphs[:6]:
                server.submit(g, SPEC_A)
            server.flush()
            gate.open()
        # the held request, then three size flushes of two
        assert len(calls) == server.executed_batches == 4


class TestWorkConserving:
    """An idle worker takes queued work at once; buckets grow only while
    every worker is busy.  No test here ticks or flushes."""

    def test_saturation_batches_behind_a_busy_worker(self, tiny_dataset,
                                                     service, gate):
        graphs = tiny_dataset.graphs[:6]
        with InferenceServer(service, num_workers=1, max_batch_size=100,
                             max_delay=10_000, tick_interval_s=None,
                             pre_execute=gate) as server:
            first, = gate.hold(server, graphs[0], SPEC_A)
            rest = [server.submit(g, SPEC_A) for g in graphs[1:]]
            gate.open()
            for t in [first] + rest:
                t.wait(timeout=30)
            flushes = dict(server.router.flushes)
        assert server.executed_batches == 2
        assert first.batch_graphs == (graphs[0],)
        for i, t in enumerate(rest):
            assert t.batch_graphs == tuple(graphs[1:])
            assert t.batch_index == i
        assert flushes == {"size": 0, "deadline": 0, "forced": 0,
                           "backpressure": 0, "idle": 2}

    def test_concurrent_submitters_never_strand_a_request(self, tiny_dataset,
                                                          service):
        graphs = tiny_dataset.graphs
        tickets, failures = [], []
        lock = threading.Lock()

        def submitter(tid):
            try:
                for i in range(25):
                    ticket = server.submit(graphs[(tid + i) % len(graphs)],
                                           SPEC_A if i % 2 else SPEC_B)
                    with lock:
                        tickets.append(ticket)
            except BaseException as err:
                failures.append(err)

        # More workers than cores and a short switch interval, so inserts
        # and workers going idle interleave as often as possible.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InferenceServer(service, num_workers=4,
                                 tick_interval_s=None) as server:
                threads = [threading.Thread(target=submitter, args=(t,))
                           for t in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                    assert not t.is_alive()
                # Nothing ticks or flushes: idle workers alone serve all.
                for t in tickets:
                    t.wait(timeout=30)
        finally:
            sys.setswitchinterval(switch_interval)
        stats = server.router.stats()  # after stop(): bookkeeping done
        assert not failures
        assert len(tickets) == 200
        assert stats["served"] == 200 and stats["pending"] == 0
        assert stats["flushes"]["deadline"] == stats["flushes"]["forced"] == 0


class TestFloat32WorkerPool:
    """Float32 forwards on two workers at once: each allocates its own
    outputs, so every row equals a serial replay of its micro-batch.
    Output buffers shared across the workers fail this in most runs."""

    ROUNDS = 200

    def test_rows_match_serial_replay_of_their_micro_batch(self,
                                                            tiny_dataset):
        def float32_service():
            return InferenceService(factory, tiny_dataset.num_tasks,
                                    batch_size=8, seed=0, policy="float32")

        service, reference = float32_service(), float32_service()
        graphs, specs = tiny_dataset.graphs[:4], (SPEC_A, SPEC_B, SPEC_C)
        barrier = threading.Barrier(2, timeout=30)
        started = itertools.count()

        def overlap():
            # The first two micro-batches wait for each other, so two
            # float32 forwards are in flight at the same time.
            if next(started) < 2:
                barrier.wait()

        # A short switch interval interleaves the two forwards finely.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InferenceServer(service, num_workers=2, max_batch_size=4,
                                 max_delay=10_000, tick_interval_s=None,
                                 pre_execute=overlap) as server:
                # Rotations of four graphs: concurrent micro-batches
                # often share every buffer shape but not the contents.
                tickets = [server.submit(graphs[(r + i) % 4],
                                         specs[r % len(specs)])
                           for r in range(self.ROUNDS) for i in range(4)]
                rows = [t.wait(timeout=30) for t in tickets]
        finally:
            sys.setswitchinterval(switch_interval)
        assert server.executed_batches >= 2
        replays = {}
        for row, ticket in zip(rows, tickets):
            key = (tuple(id(g) for g in ticket.batch_graphs), ticket.spec)
            if key not in replays:
                replays[key] = reference.predict(
                    list(ticket.batch_graphs), ticket.spec,
                    batch_size=len(ticket.batch_graphs))
            assert row.dtype == np.float32
            assert np.array_equal(row, replays[key][ticket.batch_index])


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
