"""Dynamic-batching router tests: flush semantics, ordering, parity, caches.

The load-bearing contracts:

* **parity** — a routed request's logits are bit-identical to
  ``InferenceService.predict`` on the same graphs (the assembled
  micro-batch; for a single-request flush, the one graph itself), for
  several specs and both flush triggers.  The reference service is an
  *independent* instance sharing only the supernet.
* **order preservation** — tickets carry gapless ``seq`` numbers in
  submission order, flushes return them in that order even when specs
  interleave, and every ticket carries the row of *its own* graph.

* **freshness** — responses are never memoized, so a weight mutation
  reaches the next routed response with no invalidation call.
"""

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE
from repro.core.space import FineTuneStrategySpec
from repro.core.supernet import S2PGNNSupernet
from repro.gnn import GNNEncoder
from repro.serve import BatchingRouter, InferenceService

SPEC_A = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                              fusion="last", readout="mean")
SPEC_B = FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                              fusion="mean", readout="sum")


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


@pytest.fixture(scope="module")
def routed(tiny_dataset):
    """A supernet-backed service plus an independent reference service.

    Both build their models warm-started from the same supernet with the
    same seed, so the reference predicts the same bits without sharing
    any cache with the routed service.
    """
    graphs = tiny_dataset.graphs[:24]
    supernet = S2PGNNSupernet(factory(), DEFAULT_SPACE,
                              num_tasks=tiny_dataset.num_tasks, seed=0)
    service = InferenceService(factory, tiny_dataset.num_tasks,
                               supernet=supernet, batch_size=8, seed=0)
    reference = InferenceService(factory, tiny_dataset.num_tasks,
                                 supernet=supernet, batch_size=8, seed=0)
    return graphs, service, reference


class TestFlushTriggers:
    def test_flush_on_size(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=4, max_delay=100)
        tickets = [router.submit(g, SPEC_A) for g in graphs[:4]]
        # The 4th submit filled the bucket: flushed inline, queue empty.
        assert all(t.done for t in tickets)
        assert router.pending == 0
        assert router.flushes["size"] == 1 and router.batches == 1

    def test_flush_on_deadline(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=100, max_delay=3)
        first = router.submit(graphs[0], SPEC_A)
        assert router.tick(2) == []          # age 2 < max_delay
        late = router.submit(graphs[1], SPEC_A)  # joins the aging bucket
        done = router.tick(1)                # oldest age hits 3: flush
        assert first.done and late.done
        assert [r.seq for r in done] == [0, 1]
        assert router.flushes["deadline"] == 1 and router.batches == 1

    def test_deadline_counts_from_oldest_request(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=100, max_delay=2)
        router.submit(graphs[0], SPEC_A)
        router.tick(1)
        router.submit(graphs[1], SPEC_B)     # younger bucket
        done = router.tick(1)                # only SPEC_A's bucket expired
        assert [r.spec for r in done] == [SPEC_A]
        assert router.pending == 1
        assert router.tick(1) and router.pending == 0

    def test_empty_queue_flush_is_noop(self, routed):
        _, service, _ = routed
        router = BatchingRouter(service, max_batch_size=4, max_delay=4)
        assert router.flush() == []
        assert router.flush(SPEC_A) == []
        assert router.tick(10) == []
        assert router.batches == 0 and router.served == 0

    def test_backpressure_flushes_oldest_bucket(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=4, max_delay=100,
                                max_pending=4)
        specs = [FineTuneStrategySpec(identity=("zero_aug", i), fusion="last",
                                      readout="mean")
                 for i in DEFAULT_SPACE.identity[:3]]
        first = router.submit(graphs[0], specs[0])
        for g, spec in zip(graphs[1:4], [specs[1], specs[2], specs[1]]):
            router.submit(g, spec)
        assert router.pending == 4 and not first.done
        router.submit(graphs[4], specs[2])   # exceeds max_pending
        assert first.done                    # oldest bucket served, not dropped
        assert router.flushes["backpressure"] == 1
        assert router.pending == 4 - 1 + 1   # specs[0] bucket (1 req) flushed

    def test_parameter_validation(self, routed):
        _, service, _ = routed
        with pytest.raises(ValueError):
            BatchingRouter(service, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingRouter(service, max_delay=0)
        with pytest.raises(ValueError):
            BatchingRouter(service, max_batch_size=8, max_pending=4)


class TestOrderingAndTickets:
    def test_order_preserved_under_interleaved_specs(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=100, max_delay=100)
        tickets = [router.submit(g, SPEC_A if i % 2 == 0 else SPEC_B)
                   for i, g in enumerate(graphs[:10])]
        assert [t.seq for t in tickets] == list(range(10))
        done = router.flush()
        assert done == tickets               # submission order across specs
        # Every ticket carries the row of its *own* graph: recompute each
        # spec's micro-batch through the service and match per position.
        for spec in (SPEC_A, SPEC_B):
            group = [t for t in tickets if t.spec is spec]
            batch_logits = service.predict([t.graph for t in group], spec,
                                           batch_size=len(group))
            for i, t in enumerate(group):
                assert np.array_equal(t.result(), batch_logits[i])

    def test_result_before_flush_raises(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=4, max_delay=4)
        ticket = router.submit(graphs[0], SPEC_A)
        with pytest.raises(RuntimeError, match="still queued"):
            ticket.result()
        router.flush()
        assert ticket.result().shape == (service.models.num_tasks,)

    def test_result_rows_are_private_copies(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=2, max_delay=4)
        a = router.submit(graphs[0], SPEC_A)
        b = router.submit(graphs[1], SPEC_A)
        a.result()[...] = 1e9
        assert float(np.abs(b.result()).max()) < 1e6

    def test_predict_one_piggybacks_on_pending_bucket(self, routed):
        graphs, service, _ = routed
        router = BatchingRouter(service, max_batch_size=100, max_delay=100)
        pending = [router.submit(g, SPEC_A) for g in graphs[:3]]
        out = router.predict_one(graphs[3], SPEC_A)
        assert out.shape == (service.models.num_tasks,)
        assert all(t.done for t in pending)  # served in the same forward
        assert router.batches == 1 and router.served == 4


class TestParity:
    """Routed logits vs ``InferenceService.predict`` on the same graphs,
    through an independent reference service — >= 2 specs, both triggers."""

    @pytest.mark.parametrize("spec", [SPEC_A, SPEC_B],
                             ids=lambda s: s.describe())
    def test_single_request_parity_size_trigger(self, routed, spec):
        graphs, service, reference = routed
        router = BatchingRouter(service, max_batch_size=1, max_delay=100)
        for g in graphs[:3]:
            ticket = router.submit(g, spec)   # size-1 bucket: flushed inline
            assert ticket.done
            ref = reference.predict([g], spec, batch_size=1)
            assert np.array_equal(ticket.result(), ref[0])
        assert router.flushes["size"] == 3

    @pytest.mark.parametrize("spec", [SPEC_A, SPEC_B],
                             ids=lambda s: s.describe())
    def test_single_request_parity_deadline_trigger(self, routed, spec):
        graphs, service, reference = routed
        router = BatchingRouter(service, max_batch_size=100, max_delay=2)
        ticket = router.submit(graphs[5], spec)
        router.tick(2)
        assert ticket.done and router.flushes["deadline"] == 1
        ref = reference.predict([graphs[5]], spec, batch_size=1)
        assert np.array_equal(ticket.result(), ref[0])

    @pytest.mark.parametrize("spec", [SPEC_A, SPEC_B],
                             ids=lambda s: s.describe())
    @pytest.mark.parametrize("trigger", ["size", "deadline"])
    def test_micro_batch_parity(self, routed, spec, trigger):
        graphs, service, reference = routed
        if trigger == "size":
            router = BatchingRouter(service, max_batch_size=6, max_delay=100)
        else:
            router = BatchingRouter(service, max_batch_size=100, max_delay=1)
        tickets = [router.submit(g, spec) for g in graphs[:6]]
        if trigger == "deadline":
            router.tick(1)
        assert all(t.done for t in tickets)
        assert router.flushes[trigger] == 1
        ref = reference.predict(graphs[:6], spec, batch_size=6)
        for i, t in enumerate(tickets):
            assert np.array_equal(t.result(), ref[i])

    def test_predict_one_parity(self, routed):
        graphs, service, reference = routed
        router = BatchingRouter(service, max_batch_size=100, max_delay=100)
        for spec in (SPEC_A, SPEC_B):
            got = router.predict_one(graphs[7], spec)
            ref = reference.predict([graphs[7]], spec, batch_size=1)
            assert np.array_equal(got, ref[0])


class TestFreshness:
    def test_weight_mutation_reaches_routed_responses(self, tiny_dataset):
        """After a weight mutation, the next ``predict_one`` and the next
        flushed ticket serve the new weights, with no invalidation call."""
        graphs = tiny_dataset.graphs[:4]
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        router = BatchingRouter(service, max_batch_size=100, max_delay=100)
        first = router.predict_one(graphs[0], SPEC_A)
        assert np.array_equal(router.predict_one(graphs[0], SPEC_A), first)

        model = service.model_for(SPEC_A)
        model.head.weight.data = model.head.weight.data + 1.0
        expected = service.predict([graphs[0]], SPEC_A, 1)[0]
        mutated = router.predict_one(graphs[0], SPEC_A)
        assert not np.array_equal(mutated, first)
        assert np.array_equal(mutated, expected)
        ticket = router.submit(graphs[0], SPEC_A)
        router.flush()
        assert np.array_equal(ticket.result(), expected)
