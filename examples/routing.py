"""Dynamic batching: single-graph requests routed into micro-batches.

``InferenceService`` (see ``examples/serving.py``) answers requests for
*lists* of graphs.  Online traffic has the opposite shape: independent
single-graph requests, each far too small to amortize a forward pass.
This walkthrough shows the ``BatchingRouter`` that closes the gap:

1. search a strategy as usual, stand up a service over the run's shared
   batch cache, and build a ``BatchingRouter(service, ...)`` over it;
2. ``submit`` single-graph requests — the router buckets them *by spec*
   and flushes a server-side micro-batch (one collation + one forward)
   when a bucket reaches ``max_batch_size``;
3. drive the router's **simulated clock** with ``tick`` — a bucket whose
   oldest request has waited ``max_delay`` ticks is flushed even when
   half-empty, bounding trickle-traffic latency;
4. use the router's ``predict_one`` when a caller needs an answer
   synchronously, and check the parity guarantee: routed logits are
   exactly the request's row of ``service.predict`` over the assembled
   micro-batch.

Run:  python examples/routing.py
"""

import numpy as np

from repro import InferenceService, S2PGNNSearcher, SearchConfig
from repro.gnn import GNNEncoder
from repro.graph import load_dataset
from repro.serve import BatchCacheRegistry, BatchingRouter


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
    print(f"searched spec: {result.spec.describe()}")

    # -- 2. flush-on-size: a full bucket becomes one micro-batch ----------
    rng = np.random.default_rng(7)
    spec_a = result.spec
    spec_b = searcher.space.random_spec(3, rng)
    router = BatchingRouter(service, max_batch_size=8, max_delay=3)

    tickets = [router.submit(g, spec_a if i % 2 == 0 else spec_b)
               for i, g in enumerate(test_graphs[:14])]
    # 7 requests per spec bucket: below max_batch_size, nothing flushed yet.
    print(f"\nsubmitted 14 requests over 2 specs -> "
          f"pending={router.pending}, stats={router.stats()['flushes']}")

    # -- 3. flush-on-deadline via the simulated clock ----------------------
    completed = router.tick(3)  # oldest requests now exceed max_delay
    print(f"after 3 ticks: {len(completed)} requests served by deadline "
          f"flush, pending={router.pending}")

    # -- 4. synchronous single requests + the parity guarantee -------------
    probe = test_graphs[-1]
    logits = router.predict_one(probe, spec_a)
    reference = service.predict([probe], spec_a)[0]
    assert np.array_equal(logits, reference)
    print(f"\npredict_one parity vs predict([g]): exact "
          f"(logit {float(logits[0]):+.4f})")

    for ticket in tickets:  # every ticket resolved by the flushes above
        assert ticket.done and ticket.result().shape == (dataset.num_tasks,)

    stats = router.stats()
    print(f"router: served {stats['served']} requests in {stats['batches']} "
          f"micro-batches (mean size {stats['mean_batch_size']:.1f}), "
          f"flush triggers: {stats['flushes']}")


if __name__ == "__main__":
    main()
