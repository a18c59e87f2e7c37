"""Inference memory plane benchmark: float32 vs float64 serving.

The serve stack runs under an execution dtype policy
(``repro.nn.policy``): float32 compute on weights cast once.  This benchmark
measures what that buys on the steady-state serving path — repeated
``InferenceService.predict`` requests over a warmed batch cache, each
paying the real forward — and emits
``BENCH_memory_plane.json``:

* **steady-state throughput** at float64 (the historical default policy)
  vs float32, same fitted weights (both services derive from one
  deterministic supernet);
* **spec scoring** — ``InferenceService.score_specs`` over a few specs in
  one sweep of the attached supernet (the search's candidate-ranking
  primitive; the snapshot keeps its ``onehot_*`` key names), float64 vs
  float32, where the float32
  service scores on its private float32 copy of the supernet;
* **accuracy cost** — max |logit_f32 - logit_f64| and the metric-score
  delta of both legs on the same fixed-seed evaluation, against
  :data:`ACCURACY_DELTA_BUDGET`, the committed number backing the
  toleranced serving-parity contract in
  ``tests/serve/test_memory_plane.py``.

Run modes (same protocol as the other benches):

* ``python benchmarks/bench_memory_plane.py`` — full config, writes the
  JSON snapshot (``--smoke`` / ``REPRO_BENCH_TIER=smoke`` for the sanity
  config, no overwrite).
* ``pytest benchmarks/bench_memory_plane.py`` — smoke config, asserts the
  speedup/accuracy contract (``REPRO_BENCH_WRITE=1`` writes,
  ``REPRO_BENCH_SKIP=1`` skips).
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

RESULT_PATH = result_path("memory_plane")

#: The question perfbench cannot answer: score-batch serves float32 only,
#: so it reads neither the accuracy cost nor the float32/float64 ratio.
MEASURES = ("the float32 accuracy budget (score delta <= 1e-3 against "
            "float64 on the same weights) and the float32/float64 ratios of "
            "predict and score_specs")

SMOKE = {"num_layers": 5, "emb_dim": 32, "dataset_size": 160,
         "batch_size": 32, "requests": 6, "specs": 4, "repeats": 2}
FULL = {"num_layers": 5, "emb_dim": 64, "dataset_size": 240,
        "batch_size": 64, "requests": 10, "specs": 4, "repeats": 3}

#: |score_f32 - score_f64| budget, the same committed number as
#: ``ACCURACY_DELTA_BUDGET`` in ``tests/serve/test_memory_plane.py``.
ACCURACY_DELTA_BUDGET = 1e-3


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
    rng = np.random.default_rng((seed, 55))
    specs = [DEFAULT_SPACE.random_spec(cfg["num_layers"], rng)
             for _ in range(cfg["specs"])]
    return dataset, service, specs


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_score_specs(cfg, service, graphs, specs, metric):
    """The spec-sweep leg: best-of-``repeats`` ``score_specs`` calls."""
    scored = service.score_specs(specs, graphs, metric=metric,
                                 keep_logits=True)  # warmup pass
    elapsed = _best_of(lambda: service.score_specs(specs, graphs,
                                                   metric=metric),
                       cfg["repeats"])
    return scored, {"elapsed_s": elapsed, "specs_per_s": len(specs) / elapsed,
                    "num_specs": len(specs)}


def bench_steady_state(cfg, seed=0):
    """Repeated predict requests and ``score_specs`` spec sweeps:
    float64 default vs float32."""
    from repro.metrics import multitask_score_or_fallback

    results = {"score_specs": {}}
    logits, scored = {}, {}
    requests = cfg["requests"]
    metric, trues = None, None
    for name, policy in (("float64", None), ("float32", "float32")):
        dataset, service, specs = _build_service(cfg, policy, seed)
        spec = specs[0]
        graphs = dataset.graphs
        metric = dataset.info.metric
        trues = np.stack([g.y for g in graphs], axis=0)
        service.warm(graphs)
        logits[name] = service.predict(graphs, spec)  # warmup pass

        def serve_requests(service=service, graphs=graphs, spec=spec):
            for _ in range(requests):
                service.predict(graphs, spec)

        elapsed = _best_of(serve_requests, cfg["repeats"])
        results[name] = {
            "elapsed_s": elapsed,
            "requests_per_s": requests / elapsed,
            "num_graphs": len(graphs),
        }
        scored[name], results["score_specs"][name] = _bench_score_specs(
            cfg, service, graphs, specs, metric)

    score64 = multitask_score_or_fallback(
        trues, logits["float64"].astype(np.float64), metric)
    score32 = multitask_score_or_fallback(
        trues, logits["float32"].astype(np.float64), metric)
    results["speedup"] = (results["float64"]["elapsed_s"]
                          / results["float32"]["elapsed_s"])
    onehot = results["score_specs"]
    onehot["speedup"] = (onehot["float64"]["elapsed_s"]
                         / onehot["float32"]["elapsed_s"])
    pairs = list(zip(scored["float64"], scored["float32"]))
    results["accuracy"] = {
        "metric": metric,
        "budget": ACCURACY_DELTA_BUDGET,
        "score_float64": float(score64),
        "score_float32": float(score32),
        "score_delta": float(abs(score64 - score32)),
        "logits_max_abs_diff": float(
            np.abs(logits["float32"].astype(np.float64)
                   - logits["float64"]).max()),
        "onehot_score_delta": max(abs(a.score - b.score) for a, b in pairs),
        "onehot_logits_max_abs_diff": max(
            float(np.abs(b.logits.astype(np.float64) - a.logits).max())
            for a, b in pairs),
    }
    return results


def run_benchmark(cfg=None, seed=0):
    from repro.nn.compiled import compiled_status

    cfg = cfg or (SMOKE if smoke_mode() else FULL)
    return {
        "benchmark": "memory_plane",
        "measures": MEASURES,
        "config": dict(cfg),
        # Small-GEMM timings swing 2-3x with the BLAS thread mode, so the
        # snapshot records it (the script pins 1 unless the caller set it).
        "box": {"cpu_count": os.cpu_count(),
                "compiled_kernels": compiled_status()["state"],
                "openblas_num_threads":
                    os.environ.get("OPENBLAS_NUM_THREADS")},
        "steady_state": bench_steady_state(cfg, seed),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke tier)
# ----------------------------------------------------------------------
def test_memory_plane_contract():
    results = run_contract(run_benchmark, SMOKE)
    steady = results["steady_state"]
    # Smoke tier runs a smaller model on a noisy box, so the bar sits
    # under the FULL-tier acceptance (>= 1.3x in the committed snapshot).
    assert steady["speedup"] >= 1.15, steady
    # Float32 one-hot scoring ran at ~0.9x of float64 while the attached
    # supernet stayed float64 (mixed-dtype forwards); it must not be slower.
    assert steady["score_specs"]["speedup"] >= 1.0, steady
    accuracy = steady["accuracy"]
    assert accuracy["logits_max_abs_diff"] <= 5e-4, accuracy
    assert accuracy["onehot_logits_max_abs_diff"] <= 5e-4, accuracy
    assert accuracy["score_delta"] <= ACCURACY_DELTA_BUDGET, accuracy
    assert accuracy["onehot_score_delta"] <= ACCURACY_DELTA_BUDGET, accuracy
    write_if_requested(results, RESULT_PATH)


if __name__ == "__main__":
    snapshot_main(run_benchmark, RESULT_PATH)
