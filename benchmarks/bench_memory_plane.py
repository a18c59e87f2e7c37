"""Inference memory plane benchmark: float32 + workspaces vs float64 serving.

PR 7 gave the serve stack an execution policy (``repro.nn.policy``):
float32 compute with preallocated forward workspaces.  This benchmark
measures what that buys on the steady-state serving path — repeated
``InferenceService.predict`` requests over a warmed batch cache, each
paying the real forward — and emits
``BENCH_memory_plane.json``:

* **steady-state throughput** at float64 (the historical default policy)
  vs float32 + workspace pool, same fitted weights (both services derive
  from one deterministic supernet);
* **workspace economics** — pool hit/miss counters after warmup and after
  the timed run; the contract is *zero* steady-state misses (every kernel
  output buffer leased, nothing allocated) and the acceptance snapshot
  records the steady-state hit rate (1.0 by construction when the miss
  delta is zero);
* **accuracy cost** — max |logit_f32 - logit_f64| and the metric-score
  delta on the same fixed-seed evaluation, the committed number backing
  the toleranced serving-parity contract in
  ``tests/serve/test_memory_plane.py``.

Run modes (same protocol as the other benches):

* ``python benchmarks/bench_memory_plane.py`` — full config, writes the
  JSON snapshot (``--smoke`` / ``REPRO_BENCH_TIER=smoke`` for the sanity
  config, no overwrite).
* ``pytest benchmarks/bench_memory_plane.py`` — smoke config, asserts the
  speedup/allocation/accuracy contract (``REPRO_BENCH_WRITE=1`` writes,
  ``REPRO_BENCH_SKIP=1`` skips).
"""

import json
import os
import sys
import time

import numpy as np

RESULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_memory_plane.json")

SMOKE = {"num_layers": 5, "emb_dim": 32, "dataset_size": 160,
         "batch_size": 32, "requests": 6, "repeats": 2}
FULL = {"num_layers": 5, "emb_dim": 64, "dataset_size": 240,
        "batch_size": 64, "requests": 10, "repeats": 3}


def smoke_mode() -> bool:
    return (os.environ.get("REPRO_BENCH_TIER") == "smoke"
            or "--smoke" in sys.argv)


def _build_service(cfg, policy, seed=0):
    """A serving stack under ``policy`` over one deterministic supernet.

    Both policies build their supernet from the same seeds, so the
    float32 service serves a cast of the exact weights the float64
    service serves.
    """
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
                               supernet=supernet,
                               batch_size=cfg["batch_size"], seed=seed,
                               policy=policy)
    spec = DEFAULT_SPACE.random_spec(cfg["num_layers"],
                                     np.random.default_rng((seed, 55)))
    return dataset, service, spec


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_steady_state(cfg, seed=0):
    """Repeated predict requests: float64 default vs float32 + workspaces."""
    from repro.metrics import multitask_score_or_fallback

    results = {}
    logits = {}
    requests = cfg["requests"]
    metric, trues = None, None
    for name, policy in (("float64", None), ("float32", "float32")):
        dataset, service, spec = _build_service(cfg, policy, seed)
        graphs = dataset.graphs
        metric = dataset.info.metric
        trues = np.stack([g.y for g in graphs], axis=0)
        service.warm(graphs)
        logits[name] = service.predict(graphs, spec)  # warmup pass
        pool = service.policy.workspace if service.policy else None
        warm_stats = pool.stats() if pool else None

        def serve_requests(service=service, graphs=graphs, spec=spec):
            for _ in range(requests):
                service.predict(graphs, spec)

        elapsed = _best_of(serve_requests, cfg["repeats"])
        entry = {
            "elapsed_s": elapsed,
            "requests_per_s": requests / elapsed,
            "num_graphs": len(graphs),
        }
        if pool is not None:
            steady_stats = pool.stats()
            new_hits = steady_stats["hits"] - warm_stats["hits"]
            new_misses = steady_stats["misses"] - warm_stats["misses"]
            entry["workspace"] = {
                "warm": warm_stats,
                "steady": steady_stats,
                "steady_misses": new_misses,
                "steady_hit_rate": (new_hits / (new_hits + new_misses)
                                    if new_hits + new_misses else 0.0),
            }
        results[name] = entry

    score64 = multitask_score_or_fallback(
        trues, logits["float64"].astype(np.float64), metric)
    score32 = multitask_score_or_fallback(
        trues, logits["float32"].astype(np.float64), metric)
    results["speedup"] = (results["float64"]["elapsed_s"]
                          / results["float32"]["elapsed_s"])
    results["accuracy"] = {
        "metric": metric,
        "score_float64": float(score64),
        "score_float32": float(score32),
        "score_delta": float(abs(score64 - score32)),
        "logits_max_abs_diff": float(
            np.abs(logits["float32"].astype(np.float64)
                   - logits["float64"]).max()),
    }
    return results


def run_benchmark(cfg=None, seed=0):
    cfg = cfg or (SMOKE if smoke_mode() else FULL)
    return {
        "benchmark": "memory_plane",
        "config": dict(cfg),
        "steady_state": bench_steady_state(cfg, seed),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke tier)
# ----------------------------------------------------------------------
def test_memory_plane_contract():
    import pytest

    if os.environ.get("REPRO_BENCH_SKIP") == "1":
        pytest.skip("REPRO_BENCH_SKIP=1")
    try:
        from benchmarks.conftest import assert_zero_steady_state_misses
    except ImportError:  # invoked with benchmarks/ itself on sys.path
        from conftest import assert_zero_steady_state_misses

    results = run_benchmark(SMOKE)
    print(json.dumps(results, indent=2))
    steady = results["steady_state"]
    workspace = steady["float32"]["workspace"]
    assert_zero_steady_state_misses(workspace["warm"], workspace["steady"])
    assert workspace["steady_hit_rate"] == 1.0, workspace
    # Smoke tier runs a smaller model on a noisy box, so the bar sits
    # under the FULL-tier acceptance (>= 1.3x in the committed snapshot).
    assert steady["speedup"] >= 1.15, steady
    accuracy = steady["accuracy"]
    assert accuracy["logits_max_abs_diff"] <= 5e-4, accuracy
    assert accuracy["score_delta"] <= 1e-3, accuracy
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        with open(RESULT_PATH, "w") as f:
            json.dump(results, f, indent=2)


if __name__ == "__main__":
    results = run_benchmark()
    print(json.dumps(results, indent=2))
    if smoke_mode():
        print("\nsmoke mode: snapshot not written")
    else:
        with open(RESULT_PATH, "w") as f:
            json.dump(results, f, indent=2)
        print(f"\nwrote {RESULT_PATH}")
