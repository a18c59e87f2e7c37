"""``score-batch``: offline ranking of distinct candidate specs, in process.

``InferenceService(policy="float32")`` with an attached supernet built
from the ``paper-loop`` encoder scores a seeded stream of *distinct*
specs over a fixed 480-graph set at batch 64.  Because every spec is
new, response memoization never hits, so each scored spec costs real
forwards.  This is large no-grad batches through the kernels under the
float32 memory plane and its workspace pool -- a different use of the
same ``nn`` layer than ``paper-loop`` -- and it bypasses the transport,
the router and autograd.
"""

from __future__ import annotations

import time

import numpy as np

import common
import probes
from spans import Tracer, span_table

DATASET_SIZE = 480
BATCH_SIZE = 64
SPECS_PER_CALL = 4
TRACE_CALLS = 12
#: committed float32 serving budget: score delta against float64.
SCORE_TOLERANCE = 1e-3
REFERENCE_SAMPLE = 4


def _supernet(num_tasks: int):
    from repro.core import DEFAULT_SPACE
    from repro.core.supernet import S2PGNNSupernet

    return S2PGNNSupernet(common.encoder_factory(), DEFAULT_SPACE, num_tasks, seed=0)


def _spec_stream(seed: int):
    """Distinct specs in a seeded order (the space holds 10,206)."""
    from repro.core import DEFAULT_SPACE

    rng = np.random.default_rng((seed, 5))
    seen = set()
    while True:
        spec = DEFAULT_SPACE.random_spec(common.ENCODER["num_layers"], rng)
        if spec not in seen:
            seen.add(spec)
            yield spec


def setup(seed: int, trace: bool) -> dict:
    from repro.serve import InferenceService

    state = common.cold_setup(DATASET_SIZE)
    dataset = state["dataset"]
    graphs = list(dataset.graphs)
    service = InferenceService(common.encoder_factory, dataset.num_tasks,
                               supernet=_supernet(dataset.num_tasks),
                               batch_size=BATCH_SIZE, policy="float32")
    service.warm(graphs)
    specs = _spec_stream(seed)
    service.score_specs([next(specs)], graphs)  # fills the workspace pool
    state.update(graphs=graphs, service=service, specs=specs,
                 metric=dataset.info.metric, num_tasks=dataset.num_tasks)
    return state


def teardown(state: dict) -> None:
    common.remove_dirs(state["base"])


def _score_call(state: dict) -> tuple[list, float]:
    """Score the next ``SPECS_PER_CALL`` specs of the stream in one call."""
    chunk = [next(state["specs"]) for _ in range(SPECS_PER_CALL)]
    start = time.perf_counter()
    scored = state["service"].score_specs(chunk, state["graphs"], metric=state["metric"])
    return scored, time.perf_counter() - start


def _reference_check(state: dict, scored, seed: int) -> tuple:
    from repro.serve import InferenceService

    rng = np.random.default_rng((seed, 6))
    sample = [scored[i] for i in rng.choice(len(scored), REFERENCE_SAMPLE, replace=False)]
    reference = InferenceService(common.encoder_factory, state["num_tasks"],
                                 supernet=_supernet(state["num_tasks"]),
                                 batch_size=BATCH_SIZE)
    expected = reference.score_specs([s.spec for s in sample], state["graphs"],
                                     metric=state["metric"])
    worst = max(abs(a.score - b.score) for a, b in zip(sample, expected))
    return ("float32 scores match float64 reference", worst <= SCORE_TOLERANCE,
            f"{REFERENCE_SAMPLE} sampled specs, max |d score|={worst:.3g} "
            f"(budget {SCORE_TOLERANCE:g})")


def _counters(service) -> dict:
    stats = service.stats()
    return {"logits": stats["logits"], "batches": stats["batches"],
            "models": stats["models"], "workspace": stats["policy"]["workspace"]}


def _traced_call(state: dict, tracer: Tracer, roots: list, deltas: dict) -> float:
    """One call with every probe installed; restores them afterwards."""
    probes.install_service(tracer)
    probes.install_models(tracer)
    probes.install_loader(tracer)
    deltas["label"] = probes.install_ops(tracer)
    before = _counters(state["service"])
    try:
        root = tracer.open("bench/score-batch")
        scored, elapsed = _score_call(state)
        tracer.close(root)
    finally:
        tracer.restore()
    after = _counters(state["service"])
    roots.append(root)
    for section in ("logits", "batches", "models", "workspace"):
        for key in ("hits", "misses"):
            deltas[(section, key)] = (deltas.get((section, key), 0)
                                      + after[section][key] - before[section][key])
    deltas["scored"] = deltas.get("scored", []) + scored
    return elapsed


def _ratio(deltas: dict, section: str) -> float:
    hits, misses = deltas[(section, "hits")], deltas[(section, "misses")]
    return hits / (hits + misses) if hits + misses else 0.0


def measure(state: dict, seconds: float, trace: bool, seed: int) -> dict:
    tracer, roots, deltas, traced_times = Tracer(), [], {}, []
    before = _counters(state["service"])
    scored, times = [], []
    started = time.perf_counter()
    while True:
        chunk, elapsed = _score_call(state)
        scored += chunk
        times.append(elapsed)
        if trace:
            # A traced call right after each untraced one, so the tracing
            # overhead compares calls made under the same machine load.
            traced_times.append(_traced_call(state, tracer, roots, deltas))
            if len(times) == TRACE_CALLS:
                break
            continue
        spent = time.perf_counter() - started
        if spent + spent / len(times) > seconds:
            break
    after = _counters(state["service"])
    per_spec_ms = [1000 * t / SPECS_PER_CALL for t in times]
    memo_hits = after["logits"]["hits"] - before["logits"]["hits"]
    scored += deltas.get("scored", [])
    checks = [
        _reference_check(state, scored, seed),
        ("all scores finite", all(np.isfinite(s.score) for s in scored),
         f"{len(scored)} specs"),
        ("distinct specs bypass memoization", memo_hits == 0, f"{memo_hits} logit-cache hits"),
    ]
    out = {
        "metrics": {"latency_p50_ms": common.median(per_spec_ms),
                    "throughput_per_s": SPECS_PER_CALL * len(times) / sum(times)},
        "figures": {"specs_per_s": SPECS_PER_CALL * len(times) / sum(times),
                    "spec_p50_ms": common.median(per_spec_ms),
                    "spec_p90_ms": common.quantile(per_spec_ms, 0.9),
                    "calls": len(times)},
        "phases": {"specs": common.phase_counts(len(scored), len(scored), 0, 0)},
        "checks": checks,
        "attempted": len(scored),
        "failed": 0,
    }
    if trace:
        out["trace"] = {
            "table": span_table(tracer.spans, roots=set(roots)),
            "total_s": sum(tracer.spans[r][2] - tracer.spans[r][1] for r in roots),
            "label": deltas["label"],
            "overhead_of": f"{TRACE_CALLS} score_specs calls",
            "overhead_s": sum(traced_times) - sum(times),
            "overhead_base_s": sum(times),
            "spans": tracer.spans,
        }
        misses, hits = deltas[("workspace", "misses")], deltas[("workspace", "hits")]
        out["per_layer"] = {
            "policy.workspace_misses": misses,
            "policy.workspace_hit_ratio": _ratio(deltas, "workspace"),
            "service.logit_hit_ratio": _ratio(deltas, "logits"),
            "service.batch_hit_ratio": _ratio(deltas, "batches"),
            "service.model_hit_ratio": _ratio(deltas, "models"),
        }
        out["figures"]["traced_workspace_misses"] = misses
        out["figures"]["traced_workspace_hits"] = hits
    return out
