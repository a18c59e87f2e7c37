"""Thread-safety contracts of the serve stack (registries, router, service).

These are the *unit-level* concurrency pins behind the ``InferenceServer``
(whole-runtime stress lives in ``test_stress.py``):

* **router submit atomicity** — ticket allocation (the ``seq`` counter)
  and the bucket insert happen under the router lock, so concurrent
  submitters get unique gapless sequence numbers, each in its own
  submission order;
* **registry coherence** — ``ModelRegistry.get`` races build exactly one
  model per spec; ``BatchCacheRegistry.loader`` races collate each split
  exactly once; stats counters stay consistent (hits + misses == calls);
  threads share one model's forward with no lock and get the serial bits;
* **ticket wait semantics** — ``RoutedRequest.wait(timeout)`` blocks,
  times out while queued, and resolves across threads.
"""

import threading

import numpy as np
import pytest

from repro.core import DEFAULT_SPACE
from repro.core.space import FineTuneStrategySpec
from repro.gnn import GNNEncoder
from repro.serve import BatchCacheRegistry, BatchingRouter, InferenceService, ModelRegistry

SPEC_A = FineTuneStrategySpec(identity=("zero_aug", "zero_aug"),
                              fusion="last", readout="mean")
SPEC_B = FineTuneStrategySpec(identity=("identity_aug", "zero_aug"),
                              fusion="mean", readout="sum")


def factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


def run_threads(n, target):
    """Run ``target(thread_id)`` on n threads; re-raise the first failure."""
    failures = []

    def wrap(tid):
        try:
            target(tid)
        except BaseException as err:
            failures.append(err)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


@pytest.fixture
def service(tiny_dataset):
    return InferenceService(factory, tiny_dataset.num_tasks, batch_size=8,
                            seed=0)


class TestRouterSubmitAtomicity:
    def test_concurrent_submitters_get_unique_gapless_seqs(self, tiny_dataset,
                                                           service):
        router = BatchingRouter(service, max_batch_size=10_000,
                                max_delay=10_000, max_pending=10_000)
        graphs = tiny_dataset.graphs
        per_thread = 50
        tickets = {}

        def submitter(tid):
            spec = SPEC_A if tid % 2 == 0 else SPEC_B
            tickets[tid] = [router.submit(graphs[(tid + i) % len(graphs)], spec)
                            for i in range(per_thread)]

        run_threads(8, submitter)
        assert router.pending == 8 * per_thread
        done = router.flush()
        # The pinned invariant: seq allocation + insert are atomic, so no
        # interleaving can duplicate or drop a sequence number, and the
        # flush returns the tickets in global submission order...
        assert [r.seq for r in done] == list(range(8 * per_thread))
        # ...while each thread's tickets carry its own submission order.
        for own in tickets.values():
            assert [t.seq for t in own] == sorted(t.seq for t in own)

    def test_concurrent_predict_one_all_resolve_consistently(self, tiny_dataset,
                                                             service):
        router = BatchingRouter(service, max_batch_size=6, max_delay=10_000)
        graphs = tiny_dataset.graphs
        out = {}

        def worker(tid):
            rows = [router.predict_one(graphs[(tid + i) % len(graphs)], SPEC_A)
                    for i in range(15)]
            out[tid] = rows

        run_threads(6, worker)
        stats = router.stats()
        assert stats["served"] == 6 * 15
        assert stats["pending"] == 0
        assert sum(stats["flushes"].values()) == stats["batches"]


class TestRegistryCoherence:
    def test_model_registry_races_build_one_model_per_spec(self, tiny_dataset):
        registry = ModelRegistry(factory, tiny_dataset.num_tasks, capacity=8,
                                 seed=0)
        specs = [SPEC_A, SPEC_B]
        seen = {spec: set() for spec in specs}
        lock = threading.Lock()

        def getter(tid):
            for i in range(10):
                spec = specs[(tid + i) % 2]
                model = registry.get(spec)
                with lock:
                    seen[spec].add(id(model))

        run_threads(8, getter)
        for spec in specs:  # one persistent model object per spec, ever
            assert len(seen[spec]) == 1
        stats = registry.stats()
        assert stats["hits"] + stats["misses"] == 8 * 10
        assert stats["misses"] == len(specs)

    def test_batch_cache_races_collate_each_split_once(self, tiny_dataset):
        registry = BatchCacheRegistry(capacity=8)
        graphs = tiny_dataset.graphs[:24]
        loaders = set()
        lock = threading.Lock()

        def getter(_tid):
            for _ in range(10):
                loader = registry.loader(graphs, 8)
                batches = list(loader)
                assert sum(b.num_graphs for b in batches) == 24
                with lock:
                    loaders.add(id(loader))

        run_threads(6, getter)
        assert len(loaders) == 1
        stats = registry.stats()
        assert stats["hits"] + stats["misses"] == 60
        assert stats["misses"] == 1
        assert stats["collations"] == 3  # 24 graphs / batch_size 8, built once

    def test_same_model_predict_unlocked_under_threads(self, tiny_dataset):
        """Threads share one persistent model with no lock around its
        forward: every concurrent ``predict`` of one spec is bit-identical
        to the serial result, and the model is never flipped out of the
        train mode it was left in."""
        service = InferenceService(factory, tiny_dataset.num_tasks,
                                   batch_size=8, seed=0)
        graphs = tiny_dataset.graphs[:16]
        model = service.model_for(SPEC_A)
        model.train()
        expected = service.predict(graphs, SPEC_A)
        barrier = threading.Barrier(6, timeout=10)

        def caller(_tid):
            barrier.wait()
            for _ in range(10):
                assert np.array_equal(service.predict(graphs, SPEC_A), expected)

        run_threads(6, caller)
        assert model.training
        assert service.stats()["logits"] == {"hits": 0, "misses": 61}


class TestTicketWait:
    def test_wait_times_out_while_queued(self, tiny_dataset, service):
        router = BatchingRouter(service, max_batch_size=100, max_delay=100)
        ticket = router.submit(tiny_dataset.graphs[0], SPEC_A)
        with pytest.raises(TimeoutError, match="still queued"):
            ticket.wait(timeout=0.01)
        router.flush()
        assert ticket.wait(timeout=0.01).shape == (tiny_dataset.num_tasks,)

    def test_wait_unblocks_across_threads(self, tiny_dataset, service):
        router = BatchingRouter(service, max_batch_size=100, max_delay=100)
        ticket = router.submit(tiny_dataset.graphs[0], SPEC_A)
        box = {}

        def waiter():
            box["row"] = ticket.wait(timeout=10)

        t = threading.Thread(target=waiter)
        t.start()
        router.flush()
        t.join(timeout=10)
        assert not t.is_alive()
        assert np.array_equal(box["row"], ticket.result())

    def test_failed_micro_batch_resolves_waiters_with_error(self, tiny_dataset,
                                                            failing_service):
        router = BatchingRouter(failing_service, max_batch_size=100,
                                max_delay=100)
        ticket = router.submit(tiny_dataset.graphs[0], SPEC_A)
        with pytest.raises(RuntimeError):
            router.flush()
        assert ticket.done
        with pytest.raises(RuntimeError, match="micro-batch execution failed"):
            ticket.wait(timeout=1)
