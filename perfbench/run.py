"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-loop --seed 1 --seconds 30 --trace 0

Workloads (see each module's docstring for why it was chosen):

* ``paper-loop``  -- search + fine-tune, the paper's Table XI loop;
* ``serve-wire``  -- open-loop single-graph requests over HTTP to a shard
  process;
* ``score-batch`` -- in-process float32 ranking of distinct candidate specs.

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` runs a fixed amount of the same work
untraced and then traced, and prints the per-layer table and metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero if
any output check fails.

End-to-end metrics mean the same kind of thing on every workload:

* ``setup_s``: median wall time of several cold set-ups in the run;
* ``peak_rss_mb``: peak resident memory of the run's processes;
* ``latency_p50_ms``: median time a user waits for one unit of work --
  one search + fine-tune loop, one served request (light phase), or one
  scored spec;
* ``throughput_per_s``: units completed per second -- training epochs,
  served requests per CPU-second of client + shard (busy phase), or
  scored specs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time

import common

SETUP_REPEATS = 3

WORKLOADS = {
    "paper-loop": "paper_loop",
    "serve-wire": "serve_wire",
    "score-batch": "score_batch",
}

#: per-layer metric prefix -> span name; each yields ``.calls`` and ``.s``.
SPAN_METRICS = {
    "search.theta_step": "core.search/theta_step",
    "search.alpha_step": "core.search/alpha_step",
    "search.evaluate_spec": "core.search/evaluate_spec",
    "controller.sample": "core.controller/sample",
    "supernet.forward_grad": "core.supernet/forward_grad",
    "supernet.forward_nograd": "core.supernet/forward_nograd",
    "derived.forward": "core.supernet/derived_forward",
    "nn.backward": "nn/backward",
    "nn.optim_step": "nn/optim.step",
    "nn.clip_grad_norm": "nn/clip_grad_norm",
    "graph.loader_wait": "graph/loader.wait",
    "finetune.evaluate": "finetune/evaluate",
}


def span_metrics(table: dict) -> dict:
    """Flatten a span table into per-layer metric values."""
    names, layers = table["names"], table["layers"]
    out = {}
    for prefix, span_name in SPAN_METRICS.items():
        row = names.get(span_name, {"calls": 0, "s": 0.0})
        out[f"{prefix}.calls"] = row["calls"]
        out[f"{prefix}.s"] = row["s"]
    for span_name, row in names.items():
        if span_name.startswith("nn.ops/"):
            op = span_name.split("/", 1)[1]
            out[f"nn.ops.{op}.calls"] = row["calls"]
            out[f"nn.ops.{op}.s"] = row["s"]
    ops = layers.get("nn.ops", {"calls": 0, "s": 0.0})
    out["nn.ops.calls"], out["nn.ops.s"] = ops["calls"], ops["s"]
    for layer, row in layers.items():
        out[f"self_s.{layer}"] = row["self_s"]
    return out


def _finite(value) -> float:
    """A per-layer value for the JSON line: unmeasured (None/NaN) reads 0."""
    return float(value) if value is not None and math.isfinite(value) else 0.0


def _configure_environment() -> None:
    """Set before numpy loads; the shard process inherits it."""
    # One BLAS thread per process unless the caller says otherwise: the
    # box has few cores and serve-wire runs two processes, so spinning
    # BLAS threads would only add contention noise.  The box record shows it.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    # Scratch files (the C compiler's included) stay inside the checkout.
    os.environ["TMPDIR"] = os.path.join(common.TMP_ROOT, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _load_spec() -> dict:
    path = os.path.join(common.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        return json.load(handle)


def _print_report(name, args, box, setups, out, per_layer):
    print(f"== {name}  seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("box: " + json.dumps(box, sort_keys=True))
    print(f"figures (set-up: median of {len(setups)} cold set-ups):")
    for key, value in out["figures"].items():
        print(f"  {key:<28} {value:.6g}" if isinstance(value, float)
              else f"  {key:<28} {value}")
    print("phases (attempted / succeeded / failed / timed out):")
    for phase, counts in out["phases"].items():
        print(f"  {phase:<10} {counts['attempted']:>6} {counts['succeeded']:>6} "
              f"{counts['failed']:>6} {counts['timed_out']:>6}")
    print("checks:")
    merged = {}
    for label, ok, detail in out["checks"]:
        merged[label] = (merged.get(label, (True, ""))[0] and ok, detail)
    for label, (ok, detail) in merged.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    for line in out.get("report", []):
        print(line)
    if per_layer is not None:
        missing = sorted(k for k, v in per_layer.items() if v is None)
        if missing:
            print("per-layer metrics this workload does not exercise (reported as 0): "
                  + ", ".join(missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so its processes are stopped.
    signal.signal(signal.SIGTERM, _exit_on_signal)

    spec = _load_spec()
    common.require_program()
    _configure_environment()
    common.import_program()
    module = __import__(WORKLOADS[args.workload])
    box = common.box()

    setups, state = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if state is not None:
                module.teardown(state)
                state = None
            start = time.perf_counter()
            state = module.setup(args.seed, bool(args.trace))
            state["timings"]["setup_s"] = time.perf_counter() - start
            setups.append(state["timings"])
        ticks = common.cpu_ticks()
        out = module.measure(state, args.seconds, bool(args.trace), args.seed)
        if ticks is not None:
            steal, total = (after - before for after, before
                            in zip(common.cpu_ticks(), ticks))
            out["figures"]["cpu_steal_share"] = steal / total if total else 0.0
    finally:
        try:
            if state is not None:
                module.teardown(state)
        finally:
            common.stop_children()

    setup_timings = {key: common.median([timings[key] for timings in setups])
                     for key in setups[-1]}
    out["figures"] = {**{f"setup.{k}": v for k, v in setup_timings.items()},
                      **out["figures"]}
    correct = all(ok for _, ok, _ in out["checks"])

    if args.trace:
        computed = span_metrics(out["trace"]["table"])
        computed.update(out.get("per_layer", {}))
        for key, value in setup_timings.items():
            computed[f"setup.{key}"] = value
        trace = out["trace"]
        computed["trace.overhead_pct"] = 100.0 * trace["overhead_s"] / trace["overhead_base_s"]
        wanted = spec["per_layer"]
        per_layer = {m["name"]: computed.get(m["name"]) for m in wanted}
        metrics = {m["name"]: {"value": _finite(per_layer[m["name"]]), "unit": m["unit"]}
                   for m in wanted}
        from spans import format_table

        path = os.path.join(common.TMP_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
        os.makedirs(common.TMP_ROOT, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": trace["spans"]}, handle)
        out.setdefault("report", []).extend([
            f"layer table (traced run; backend={trace['label']['backend']}, "
            f"compiled={trace['label']['compiled']}; spans written to {path}):",
            format_table(trace["table"], trace["total_s"]),
            f"tracing overhead ({trace['overhead_of']}): traced "
            f"{trace['overhead_base_s'] + trace['overhead_s']:.4f} s - untraced "
            f"{trace['overhead_base_s']:.4f} s = {trace['overhead_s']:.4f} s"
            f" ({computed['trace.overhead_pct']:.1f}%)",
        ])
    else:
        per_layer = None
        out["figures"]["peak_rss.benchmark_mb"] = common.peak_rss_mb()
        out["figures"]["peak_rss.shard_mb"] = out.get("child_rss_mb", 0.0)
        values = {"setup_s": setup_timings["setup_s"],
                  "peak_rss_mb": common.peak_rss_mb() + out.get("child_rss_mb", 0.0),
                  **out["metrics"]}
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        broken = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
        if broken:
            correct = False
            out["checks"].append(("end-to-end metrics measured", False,
                                  "no value for " + ", ".join(broken)))
            for name in broken:
                metrics[name]["value"] = 0.0

    _print_report(args.workload, args, box, setups, out, per_layer)
    print(json.dumps({"correct": correct, "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
