"""Concurrent serving: worker-pool InferenceServer + real transports.

``examples/routing.py`` drives the dynamic-batching router by hand —
*you* call ``tick()`` and ``flush()``.  A deployment can't do that: it
needs something to drive deadlines on a real clock and something to
execute micro-batches while new requests keep arriving.  This walkthrough
stands up that runtime:

1. search a strategy and build an ``InferenceService`` as usual — the
   whole serve stack underneath is thread-safe (context-local grad state,
   locked registries; see the README's concurrency-model section);
2. wrap it in an ``InferenceServer``: a pool of worker threads takes
   micro-batches as soon as a worker is idle (requests batch up only
   while every worker is busy), and a background ticker thread maps the
   router's simulated clock onto real time for deadline flushes;
3. hammer it from several submitter threads; every ticket records the
   micro-batch it was served in (``batch_graphs``/``batch_index``), so we
   replay each one serially and verify the responses are bit-identical —
   concurrency changes *when* and *with whom* a request runs, never
   *what* its micro-batch computes;
4. speak the same requests through the in-process transport and the
   stdlib HTTP/JSON transport (``submit``/``predict``/``stats``) — the
   wire format a real deployment would see.

Run:  python examples/concurrent_serving.py
"""

import threading
import time

import numpy as np

from repro import InferenceService, S2PGNNSearcher, SearchConfig
from repro.gnn import GNNEncoder
from repro.graph import load_dataset
from repro.serve import (
    BatchCacheRegistry,
    HTTPServingClient,
    HTTPServingTransport,
    InferenceServer,
    InProcessTransport,
)


def main():
    # -- 1. a searched service, as in the serving walkthrough -------------
    dataset = load_dataset("bbbp", size=160)
    _, _, test_graphs = dataset.split()

    def encoder_factory():
        return GNNEncoder("gin", num_layers=3, emb_dim=32, dropout=0.0, seed=0)

    cache = BatchCacheRegistry()
    searcher = S2PGNNSearcher(encoder_factory(), dataset,
                              config=SearchConfig(epochs=2, seed=0),
                              batch_cache=cache)
    result = searcher.search()
    service = InferenceService(encoder_factory, dataset.num_tasks,
                               supernet=result.supernet, batch_cache=cache)
    # An independent reference service for the parity replay below: it
    # shares nothing with the served one except the searched supernet.
    reference = InferenceService(encoder_factory, dataset.num_tasks,
                                 supernet=result.supernet)
    specs = [result.spec, searcher.space.random_spec(3, np.random.default_rng(7))]
    print(f"searched spec: {result.spec.describe()}")

    # -- 2 + 3. the concurrent runtime under multi-threaded load ----------
    tickets = []
    tickets_lock = threading.Lock()

    with InferenceServer(service, num_workers=4, max_batch_size=8,
                         max_delay=4, tick_interval_s=0.002) as server:

        def submitter(worker_id: int):
            for i in range(24):
                graph = test_graphs[(worker_id * 24 + i) % len(test_graphs)]
                ticket = server.submit(graph, specs[i % len(specs)])
                with tickets_lock:
                    tickets.append(ticket)

        start = time.perf_counter()
        threads = [threading.Thread(target=submitter, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rows = [t.wait(timeout=30.0) for t in tickets]
        elapsed = time.perf_counter() - start

        stats = server.stats()
        print(f"\nserved {len(tickets)} requests from 4 submitter threads in "
              f"{elapsed:.3f}s ({len(tickets) / elapsed:.0f} req/s) across "
              f"{stats['server_router']['batches']} micro-batches "
              f"(mean size {stats['server_router']['mean_batch_size']:.1f}, "
              f"{stats['server']['workers']} workers)")

        # Sequence numbers are allocated under the router lock: unique and
        # gapless even with 4 racing submitters.
        seqs = sorted(t.seq for t in tickets)
        assert seqs == list(range(len(tickets)))

        # Bit-identical parity: replay every ticket's recorded micro-batch
        # serially through the independent reference service.
        for ticket, row in zip(tickets, rows):
            replay = reference.predict(list(ticket.batch_graphs), ticket.spec,
                                       batch_size=len(ticket.batch_graphs))
            assert np.array_equal(row, replay[ticket.batch_index])
        print("parity: all responses bit-identical to the serial replay")

        # -- 4a. the same requests through the in-process transport --------
        transport = InProcessTransport(server)
        seq = transport.submit(test_graphs[0], specs[0])
        reply = transport.result(seq, timeout_s=10.0)
        print(f"\nin-process transport: submit -> seq {seq}, result batch "
              f"size {reply['batch_size']}")

        # -- 4b. ... and over real HTTP (stdlib http.server) ---------------
        with HTTPServingTransport(server, port=0) as http:
            client = HTTPServingClient(http.url)
            logits = client.predict(test_graphs[1], specs[0])
            remote_stats = client.stats()
            client.close()
            print(f"HTTP transport on {http.url}: predict -> logits "
                  f"{np.round(logits, 4).tolist()}, server has executed "
                  f"{remote_stats['server']['executed_batches']} micro-batches")

    print("\nserver stopped; every submitted ticket resolved before shutdown")


if __name__ == "__main__":
    main()
