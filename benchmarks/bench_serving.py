"""Throughput benchmark for the batch-serving subsystem (repro.serve).

Times the two serving hot paths and emits ``BENCH_serving.json`` so future
PRs can track the trajectory:

1. **Prediction requests** — repeated ``InferenceService.predict`` calls
   (persistent derived model + shared pre-collated batches; every request
   runs its forward) vs the cold path a caller without the serving layer
   pays per request: build a fresh ``DerivedModel`` from the encoder
   factory, warm-start it from the supernet, collate an uncached loader,
   forward.  Logits must be bit-identical.
2. **Many-spec scoring** — ``score_specs`` calls over one shared batch
   cache (one prefix-shared supernet sweep for all specs, collate once)
   vs the per-call cold
   path (fresh warm-started model + fresh uncached loader per spec per
   round).  Logits must be bit-identical.

The ``speedup`` figures (cold / warm) are reported, not gated.

Run modes:

* ``python benchmarks/bench_serving.py`` — full config, writes the JSON
  snapshot next to this file (pass ``--smoke`` or set
  ``REPRO_BENCH_TIER=smoke`` for a fast sanity config that does not
  overwrite the snapshot).
* ``pytest benchmarks/bench_serving.py`` — smoke config, asserts the
  equivalence contract, does not overwrite the snapshot
  (``REPRO_BENCH_WRITE=1`` writes it; ``REPRO_BENCH_SKIP=1`` skips).
"""

import os
import time

import numpy as np

from conftest import (
    result_path, run_contract, smoke_mode, snapshot_main, write_if_requested)

RESULT_PATH = result_path("serving")

SMOKE = {"num_layers": 3, "emb_dim": 16, "dataset_size": 60, "batch_size": 32,
         "requests": 8, "num_specs": 4, "rounds": 2, "repeats": 2}
FULL = {"num_layers": 5, "emb_dim": 32, "dataset_size": 160, "batch_size": 32,
        "requests": 20, "num_specs": 8, "rounds": 3, "repeats": 3}


def _build(cfg, seed=0):
    from repro.core import DEFAULT_SPACE
    from repro.core.supernet import S2PGNNSupernet
    from repro.gnn import GNNEncoder
    from repro.graph import load_dataset
    from repro.serve import InferenceService

    dataset = load_dataset("bbbp", size=cfg["dataset_size"])
    _, valid_graphs, _ = dataset.split()

    def encoder_factory():
        return GNNEncoder("gin", num_layers=cfg["num_layers"],
                          emb_dim=cfg["emb_dim"], dropout=0.0, seed=seed)

    supernet = S2PGNNSupernet(encoder_factory(), DEFAULT_SPACE,
                              num_tasks=dataset.num_tasks, seed=seed)
    supernet.eval()
    service = InferenceService(encoder_factory, dataset.num_tasks,
                               supernet=supernet,
                               batch_size=cfg["batch_size"], seed=seed)
    rng = np.random.default_rng((seed, 55))
    specs = [DEFAULT_SPACE.random_spec(cfg["num_layers"], rng)
             for _ in range(cfg["num_specs"])]
    return dataset, valid_graphs, supernet, service, specs, encoder_factory


def _cold_model(encoder_factory, spec, num_tasks, supernet, seed=0):
    from repro.core.supernet import DerivedModel

    model = DerivedModel(encoder_factory(), spec, num_tasks, seed=seed)
    model.load_from_supernet(supernet)
    model.eval()
    return model


def _cold_forward(model, graphs, batch_size):
    from repro.graph import DataLoader
    from repro.nn import no_grad

    preds = []
    with no_grad():
        for batch in DataLoader(graphs, batch_size=batch_size):
            preds.append(model(batch).data.copy())
    return np.concatenate(preds, axis=0)


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_predict_requests(cfg, seed=0):
    """Persistent-model serving vs per-request model build + collation."""
    dataset, graphs, supernet, service, specs, factory = _build(cfg, seed)
    spec = specs[0]
    requests = cfg["requests"]

    warm_logits = service.predict(graphs, spec)  # populate model + batches
    cold_logits = _cold_forward(
        _cold_model(factory, spec, dataset.num_tasks, supernet, seed),
        graphs, cfg["batch_size"])
    max_diff = float(np.abs(warm_logits - cold_logits).max())

    def serve_requests():
        for _ in range(requests):
            service.predict(graphs, spec)

    def cold_requests():
        for _ in range(requests):
            model = _cold_model(factory, spec, dataset.num_tasks, supernet, seed)
            _cold_forward(model, graphs, cfg["batch_size"])

    warm_s = _best_of(serve_requests, cfg["repeats"])
    cold_s = _best_of(cold_requests, cfg["repeats"])
    return {
        "requests": requests,
        "num_graphs": len(graphs),
        "warm_s": warm_s,
        "cold_s": cold_s,
        "warm_requests_per_s": requests / warm_s,
        "cold_requests_per_s": requests / cold_s,
        "speedup": cold_s / warm_s,
        "logits_max_abs_diff": max_diff,
    }


def bench_spec_scoring(cfg, seed=0):
    """Shared-cache spec sweep vs per-call cold scoring."""
    from repro.metrics import multitask_score_or_fallback

    dataset, graphs, supernet, service, specs, factory = _build(cfg, seed)
    rounds, metric = cfg["rounds"], dataset.info.metric

    # Parity: serving logits per spec == cold model + uncached loader.
    served = service.score_specs(specs, graphs, metric=metric, keep_logits=True)
    max_diff = 0.0
    for entry in served:
        cold = _cold_forward(
            _cold_model(factory, entry.spec, dataset.num_tasks, supernet, seed),
            graphs, cfg["batch_size"])
        max_diff = max(max_diff, float(np.abs(entry.logits - cold).max()))

    trues = np.concatenate([g.y.reshape(1, -1) for g in graphs], axis=0)

    def warm_rounds():
        for _ in range(rounds):
            service.score_specs(specs, graphs, metric=metric)

    def cold_rounds():
        for _ in range(rounds):
            for spec in specs:
                model = _cold_model(factory, spec, dataset.num_tasks,
                                    supernet, seed)
                logits = _cold_forward(model, graphs, cfg["batch_size"])
                multitask_score_or_fallback(trues, logits, metric)

    warm_s = _best_of(warm_rounds, cfg["repeats"])
    cold_s = _best_of(cold_rounds, cfg["repeats"])
    scored = rounds * len(specs)
    return {
        "num_specs": len(specs),
        "rounds": rounds,
        "warm_s": warm_s,
        "cold_s": cold_s,
        "warm_specs_per_s": scored / warm_s,
        "cold_specs_per_s": scored / cold_s,
        "speedup": cold_s / warm_s,
        "logits_max_abs_diff": max_diff,
        "cache": service.batch_cache.stats(),
    }


def run_benchmark(cfg=None, seed=0):
    cfg = cfg or (SMOKE if smoke_mode() else FULL)
    return {
        "benchmark": "serving",
        "config": dict(cfg),
        # Small-GEMM timings swing 2-3x with the BLAS thread mode, so the
        # snapshot records it (None: the library default).
        "box": {"cpu_count": os.cpu_count(),
                "openblas_num_threads":
                    os.environ.get("OPENBLAS_NUM_THREADS")},
        "predict_requests": bench_predict_requests(cfg, seed),
        "spec_scoring": bench_spec_scoring(cfg, seed),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke tier)
# ----------------------------------------------------------------------
def test_serving_parity_contract():
    results = run_contract(run_benchmark, SMOKE)
    predict, scoring = results["predict_requests"], results["spec_scoring"]
    assert predict["logits_max_abs_diff"] == 0.0, predict
    assert scoring["logits_max_abs_diff"] == 0.0, scoring
    write_if_requested(results, RESULT_PATH)


if __name__ == "__main__":
    snapshot_main(run_benchmark, RESULT_PATH)
