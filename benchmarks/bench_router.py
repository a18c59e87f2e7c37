"""Throughput benchmark for the dynamic-batching router (repro.serve.router).

Times a stream of *single-graph* prediction requests two ways and emits
``BENCH_router.json``:

1. **Routed** — requests submitted to a ``BatchingRouter`` that assembles
   server-side micro-batches (flush-on-size): one disjoint-union
   collation + one forward per ``max_batch_size`` requests, with the
   micro-batch collations (and their segment plans, PR 2) cached across
   rounds by the service's shared batch cache.
2. **Batch-of-one** — what a naive endpoint pays per request: a fresh
   one-graph ``DataLoader`` (collation + segment plans rebuilt from
   scratch every time) and a one-graph forward through the *same*
   persistent model.  Model construction is excluded: both sides serve
   from the same persistent models.

The acceptance contract is routed throughput >= 5x batch-of-one in the
full config, and per-request parity within float noise (batching changes
BLAS summation shapes, so routed rows differ from their own batch-of-one
forwards in the last bits; exact parity against ``service.predict`` over
the assembled micro-batch is pinned separately in
``tests/serve/test_router.py``).

Run modes:

* ``python benchmarks/bench_router.py`` — full config, writes the JSON
  snapshot next to this file (pass ``--smoke`` or set
  ``REPRO_BENCH_TIER=smoke`` for a fast sanity config that does not
  overwrite the snapshot).
* ``pytest benchmarks/bench_router.py`` — smoke config, asserts the
  throughput/parity contract, does not overwrite the snapshot
  (``REPRO_BENCH_WRITE=1`` writes it; ``REPRO_BENCH_SKIP=1`` skips).
"""

import os

# One BLAS thread, as perfbench pins it: with BLAS threads left on, one
# process can time small GEMMs 2-3x slower than the next.  Set before numpy
# first loads (``conftest`` imports it too).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import time

import numpy as np

from conftest import (
    result_path, run_contract, smoke_mode, snapshot_main, write_if_requested)

RESULT_PATH = result_path("router")

#: The question perfbench cannot answer: serve-wire times the whole HTTP
#: stack, so it cannot separate what micro-batching alone buys.
MEASURES = ("in-process routed vs batch-of-one requests/s with no transport, "
            "queue or worker pool; single_requests_per_s is the "
            "batch-of-one floor")

SMOKE = {"num_layers": 3, "emb_dim": 16, "dataset_size": 60, "requests": 48,
         "max_batch_size": 16, "num_specs": 2, "repeats": 2}
FULL = {"num_layers": 5, "emb_dim": 32, "dataset_size": 160, "requests": 128,
        "max_batch_size": 32, "num_specs": 2, "repeats": 3}


def _build(cfg, seed=0):
    from repro.core import DEFAULT_SPACE
    from repro.core.supernet import S2PGNNSupernet
    from repro.gnn import GNNEncoder
    from repro.graph import load_dataset
    from repro.serve import InferenceService

    dataset = load_dataset("bbbp", size=cfg["dataset_size"])

    def encoder_factory():
        return GNNEncoder("gin", num_layers=cfg["num_layers"],
                          emb_dim=cfg["emb_dim"], dropout=0.0, seed=seed)

    supernet = S2PGNNSupernet(encoder_factory(), DEFAULT_SPACE,
                              num_tasks=dataset.num_tasks, seed=seed)
    supernet.eval()
    service = InferenceService(encoder_factory, dataset.num_tasks,
                               supernet=supernet, seed=seed)
    rng = np.random.default_rng((seed, 56))
    specs = [DEFAULT_SPACE.random_spec(cfg["num_layers"], rng)
             for _ in range(cfg["num_specs"])]
    stream = [(dataset.graphs[i % len(dataset.graphs)], specs[i % len(specs)])
              for i in range(cfg["requests"])]
    return dataset, service, specs, stream


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_routed_requests(cfg, seed=0):
    """Routed single-request stream vs per-request batch-of-one forwards."""
    from repro.graph import DataLoader
    from repro.nn import inference
    from repro.serve import BatchingRouter

    dataset, service, specs, stream = _build(cfg, seed)
    models = {spec: service.model_for(spec) for spec in specs}

    def route_stream():
        router = BatchingRouter(service, max_batch_size=cfg["max_batch_size"],
                                max_delay=4)
        tickets = [router.submit(graph, spec) for graph, spec in stream]
        router.flush()
        return router, tickets

    def single_stream():
        # inference() gives the eval forward without writing the
        # persistent models' training flag.
        out = []
        with inference():
            for graph, spec in stream:
                for batch in DataLoader([graph], batch_size=1):
                    out.append(models[spec](batch).data.copy())
        return out

    # Parity first (also warms the routed path's batch/plan caches).
    (router, tickets), singles = route_stream(), single_stream()
    parity = max(float(np.abs(t.result() - s[0]).max())
                 for t, s in zip(tickets, singles))
    router_stats = router.stats()

    routed_s = _best_of(route_stream, cfg["repeats"])
    single_s = _best_of(single_stream, cfg["repeats"])
    requests = cfg["requests"]
    return {
        "requests": requests,
        "num_specs": len(specs),
        "max_batch_size": cfg["max_batch_size"],
        "mean_batch_size": router_stats["mean_batch_size"],
        "routed_s": routed_s,
        "single_s": single_s,
        "routed_requests_per_s": requests / routed_s,
        "single_requests_per_s": requests / single_s,
        "speedup": single_s / routed_s,
        "parity_max_abs_diff": parity,
        "cache": service.batch_cache.stats(),
    }


def run_benchmark(cfg=None, seed=0):
    cfg = cfg or (SMOKE if smoke_mode() else FULL)
    return {
        "benchmark": "router",
        "measures": MEASURES,
        "config": dict(cfg),
        "routed_requests": bench_routed_requests(cfg, seed),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke tier)
# ----------------------------------------------------------------------
def test_router_throughput_contract():
    results = run_contract(run_benchmark, SMOKE)
    routed = results["routed_requests"]
    assert routed["parity_max_abs_diff"] < 1e-9, routed
    assert routed["speedup"] >= 3.0, routed
    write_if_requested(results, RESULT_PATH)


if __name__ == "__main__":
    snapshot_main(run_benchmark, RESULT_PATH)
