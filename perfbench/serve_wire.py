"""``serve-wire``: open-loop single-graph requests over HTTP to a shard.

The server is a ``serve.cluster.ShardProcess`` (``InferenceServer`` +
HTTP transport in its own process) with the CLI defaults: float64, 2
workers, a 4-tick x 2 ms batching deadline.  It serves the same
pretrained encoder as ``paper-loop`` under 8 specs.  The load goes
through the program's own ``HTTPServingClient`` (``shard.client()``):
each request is one graph, sent by ``submit`` from one thread and
claimed by ``result`` long-polls from a second, over a Zipf(1.1) mix of
the 8 specs.  Per-request compute is small here: the time goes to the
batching deadline, the queue, the HTTP transport and client, and the
worker pool; nothing runs autograd.

The load is an open loop in two fixed-rate phases, ``light`` (50 req/s)
and ``busy`` (120 req/s): arrivals follow a seeded Poisson schedule, so
a slow server does not slow the sender down.  Latency is timed from each
request's due time to the moment its result is claimed, so a stalled
sender's delay counts against the requests it made late.  The busy
phase also measures what the serving costs: the CPU seconds client and
shard spend per request served.

The schedule, the spec mix and the graph choice all come from the seed
(the 8 specs themselves are fixed); the server process receives only the
generated requests.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import urllib.request
from dataclasses import dataclass

import numpy as np

import common
import probes
from spans import Tracer, span_table

DATASET_SIZE = 240
NUM_SPECS = 8
SPEC_SET_SEED = 3
ZIPF_S = 1.1
#: (name, offered req/s, share of the run): at 30 s, 1000 and 1200
#: requests, enough for a p99.
PHASES = (("light", 50.0, 2 / 3), ("busy", 120.0, 1 / 3))
SLO_MS = 50.0
REQUEST_TIMEOUT_S = 10.0
#: logits must match the in-process float64 reference this closely
#: (micro-batch composition may change summation order in the last bits).
LOGIT_TOLERANCE = 1e-9
SERVER = dict(num_workers=2, max_delay=4, tick_interval_s=0.002)


@dataclass
class WireServiceFactory:
    """Builds the shard's ``InferenceService`` inside the shard process.

    With ``trace_path`` set it also installs the server-side probes
    (initially off; the client turns them on through ``/stats``) and
    writes the recorded spans to ``trace_path`` when the server stops.
    """

    num_tasks: int
    trace_path: str = ""

    def __call__(self):
        from repro.serve import InferenceService

        service = InferenceService(common.encoder_factory, self.num_tasks)
        if self.trace_path:
            _install_shard_tracing(self.trace_path)
        return service


def _install_shard_tracing(path: str) -> None:
    from repro.serve import server, transport

    tracer = Tracer(enabled=False)
    probes.install_shard(tracer)
    handle = transport.ServingProtocol.handle

    def control(self, op, payload):
        command = (payload or {}).get("perfbench") if op == "stats" else None
        if command in ("trace_on", "trace_off"):
            tracer.enabled = command == "trace_on"
            return {"tracing": tracer.enabled}
        return handle(self, op, payload)

    stop = server.InferenceServer.stop

    def stop_and_dump(self):
        stop(self)
        tracer.dump(path)

    tracer.patch(transport.ServingProtocol, "handle", control)
    tracer.patch(server.InferenceServer, "stop", stop_and_dump)


def _control(url: str, command: str) -> dict:
    """Switch the shard's span recording on or off (benchmark-only op)."""
    request = urllib.request.Request(
        f"{url}/stats", data=json.dumps({"perfbench": command}).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as reply:
        return json.loads(reply.read())


def setup(seed: int, trace: bool) -> dict:
    from repro.core import DEFAULT_SPACE
    from repro.serve.cluster import ShardProcess

    state = common.cold_setup(DATASET_SIZE)
    dataset = state["dataset"]
    # The served specs are the same for every seed (their forward costs
    # differ); the seed draws which of them each request uses.
    rng = np.random.default_rng(SPEC_SET_SEED)
    specs = []
    while len(specs) < NUM_SPECS:
        spec = DEFAULT_SPACE.random_spec(common.ENCODER["num_layers"], rng)
        if spec not in specs:
            specs.append(spec)
    state["specs"] = specs
    state["graphs"] = list(dataset.graphs)
    state["num_tasks"] = dataset.num_tasks
    state["trace_path"] = os.path.join(state["base"], "shard-spans.json") if trace else ""
    start = time.perf_counter()
    shard = ShardProcess(WireServiceFactory(dataset.num_tasks, state["trace_path"]),
                         **SERVER).start()
    state["timings"]["cluster.shard_start.s"] = time.perf_counter() - start
    state["shard"] = shard
    state["client"] = client = shard.client(timeout_s=REQUEST_TIMEOUT_S)
    try:
        for spec in specs:  # build every spec's model before the timed phases
            client.predict(state["graphs"][0], spec)
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: dict) -> None:
    if "shard" in state:
        state["shard"].stop()
    common.remove_dirs(state["base"])


def _schedule(seed: int, seconds: float) -> dict:
    """Per phase: arrival offsets, graph indices and spec indices."""
    rng = np.random.default_rng((seed, 4))
    weights = 1.0 / np.arange(1, NUM_SPECS + 1) ** ZIPF_S
    weights /= weights.sum()
    phases = {}
    for name, rate, share in PHASES:
        count = max(1, round(rate * seconds * share))
        gaps = rng.exponential(1.0 / rate, count)
        phases[name] = {
            "rate": rate,
            # Poisson gaps rescaled so the phase offers exactly ``rate``.
            "offsets": np.cumsum(gaps) * (count / rate) / gaps.sum(),
            "graphs": rng.integers(0, DATASET_SIZE, count),
            "specs": rng.choice(NUM_SPECS, size=count, p=weights),
        }
    return phases


def _run_phase(state: dict, phase: dict, tracer: Tracer) -> list[dict]:
    """Send one phase open-loop; returns one record per request."""
    client, graphs, specs = state["client"], state["graphs"], state["specs"]
    records = [{"status": None} for _ in phase["offsets"]]
    claims: "queue.Queue" = queue.Queue()
    base = time.perf_counter() + 0.05

    def send():
        for i, record in enumerate(records):
            record["due"] = due = base + phase["offsets"][i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record["sent"] = time.perf_counter()
            graph, spec = graphs[phase["graphs"][i]], specs[phase["specs"][i]]
            index = tracer.open("serve.transport/client.submit")
            try:
                record["seq"] = client.submit(graph, spec)
            except RuntimeError as err:  # served error or no answer
                record["status"], record["error"] = "failed", str(err)
            finally:
                tracer.close(index)
            if index is not None and "seq" in record:
                tracer.spans[index][4] = record["seq"]
            claims.put(i)
        claims.put(None)

    def collect():
        while (i := claims.get()) is not None:
            _claim(client, records[i], tracer)

    threads = [threading.Thread(target=send, name="perfbench-send"),
               threading.Thread(target=collect, name="perfbench-collect")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _claim(client, record: dict, tracer: Tracer) -> None:
    """Long-poll ``result`` until the request is answered, fails or times out."""
    if record["status"] == "failed":
        return
    deadline = record["due"] + REQUEST_TIMEOUT_S
    while record["status"] is None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            record["status"] = "timed_out"
            return
        with tracer.span("serve.transport/client.result", record["seq"]):
            try:
                reply = client.result(record["seq"], timeout_s=min(1.0, remaining))
            except RuntimeError as err:
                record["status"], record["error"] = "failed", str(err)
                return
        if reply.get("pending"):
            continue
        if "error" in reply:
            record["status"], record["error"] = "failed", reply["error"]
            return
        record["claimed"] = time.perf_counter()
        record["logits"] = np.asarray(reply["logits"])
        record["status"] = "ok"


def _phase_figures(records: list[dict]) -> dict:
    ok = [r for r in records if r["status"] == "ok"]
    latency = [1000 * (r["claimed"] - r["due"]) for r in ok]
    late = [1000 * (r["sent"] - r["due"]) for r in records if "sent" in r]
    span = (max(r["claimed"] for r in ok) - min(r["due"] for r in records)) if ok else 1.0
    return {
        "requests": len(records),
        "p50_ms": common.quantile(latency, 0.5),
        "p99_ms": common.quantile(latency, 0.99),
        "rps": len(ok) / span,
        "slo_met_share": sum(1 for x in latency if x <= SLO_MS) / len(records),
        "late_p50_ms": common.quantile(late, 0.5),
        "late_p99_ms": common.quantile(late, 0.99),
        "counts": common.phase_counts(
            len(records), len(ok),
            sum(1 for r in records if r["status"] == "failed"),
            sum(1 for r in records if r["status"] == "timed_out")),
    }


def _reference(state: dict) -> dict:
    """In-process float64 logits of every (spec, graph) pair."""
    service = WireServiceFactory(state["num_tasks"])()
    return {i: service.predict(state["graphs"], spec)
            for i, spec in enumerate(state["specs"])}


def _check_logits(state: dict, phase: dict, records: list[dict], reference) -> tuple:
    worst, checked = 0.0, 0
    for i, record in enumerate(records):
        if record["status"] != "ok":
            continue
        expected = reference[int(phase["specs"][i])][int(phase["graphs"][i])]
        worst = max(worst, float(np.max(np.abs(record["logits"] - expected))))
        checked += 1
    return worst <= LOGIT_TOLERANCE, checked, worst


def _cpu_s() -> float:
    """CPU seconds used so far by this process and the shard process."""
    import multiprocessing

    return common.process_cpu_s(os.getpid()) + sum(
        common.process_cpu_s(child.pid) for child in multiprocessing.active_children())


def _run_phases(state: dict, schedule: dict, tracer: Tracer,
                cpu_s: dict | None = None) -> dict:
    """Run every phase in order; ``cpu_s`` receives each phase's client +
    shard CPU seconds."""
    runs = {}
    for name, phase in schedule.items():
        before = _cpu_s()
        runs[name] = _run_phase(state, phase, tracer)
        if cpu_s is not None:
            cpu_s[name] = _cpu_s() - before
    return runs


def measure(state: dict, seconds: float, trace: bool, seed: int) -> dict:
    url, client = state["shard"].url, state["client"]
    schedule = _schedule(seed, seconds / 2 if trace else seconds)
    cpu_s: dict = {}
    runs = {"untraced": _run_phases(state, schedule, Tracer(enabled=False), cpu_s)}
    # The shard's peak resident set, read while it still runs.
    child_rss_mb = common.child_peak_rss_mb()
    if trace:
        tracer = Tracer()
        before = client.stats()
        _control(url, "trace_on")
        runs["traced"] = _run_phases(state, schedule, tracer)
        after = client.stats()
        state["shard"].stop()
        with open(state["trace_path"]) as handle:
            server_spans = json.load(handle)["spans"]
    reference = _reference(state)

    checks, phases, figures = [], {}, {}
    attempted = failed = 0
    for run_name, run in runs.items():
        for name, records in run.items():
            stats = _phase_figures(records)
            key = name if run_name == "untraced" else f"{name}_traced"
            phases[key] = stats["counts"]
            attempted += stats["counts"]["attempted"]
            failed += stats["counts"]["attempted"] - stats["counts"]["succeeded"]
            for field in ("p50_ms", "p99_ms", "rps", "slo_met_share", "late_p50_ms",
                          "late_p99_ms", "requests"):
                figures[f"{key}_{field}"] = stats[field]
            ok, checked, worst = _check_logits(state, schedule[name], records, reference)
            checks.append((f"{key} logits match in-process reference", ok,
                           f"{checked} claimed, max |d|={worst:.3g} (tol {LOGIT_TOLERANCE:g})"))
    light = _phase_figures(runs["untraced"]["light"])
    for name, seconds_cpu in cpu_s.items():
        figures[f"{name}_cpu_ms_per_request"] = 1000 * seconds_cpu / max(
            phases[name]["succeeded"], 1)
    out = {
        # Busy-phase requests served per CPU-second of client + shard:
        # what one core sustains.  The offered rate is fixed, so this
        # moves with the serving stack's cost per request, and time the
        # hypervisor gives to other guests does not count.
        "metrics": {"latency_p50_ms": light["p50_ms"],
                    "throughput_per_s": phases["busy"]["succeeded"] / cpu_s["busy"]},
        "child_rss_mb": child_rss_mb,
        "figures": figures,
        "phases": phases,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        traced_light = _phase_figures(runs["traced"]["light"])
        out["trace"] = _trace_summary(tracer.spans, server_spans, runs["traced"],
                                      before, after)
        out["trace"]["overhead_of"] = "light-phase p50 latency"
        out["trace"]["overhead_s"] = (traced_light["p50_ms"] - light["p50_ms"]) / 1000
        out["trace"]["overhead_base_s"] = light["p50_ms"] / 1000
        out["per_layer"] = out["trace"].pop("per_layer")
        out["report"] = out["trace"].pop("report")
    return out


def _durations_ms(spans, name):
    return [1000 * (s[2] - s[1]) for s in spans if s[0] == name and s[2] is not None]


def _ratio(after, before, section):
    hits = after[section]["hits"] - before[section]["hits"]
    misses = after[section]["misses"] - before[section]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _trace_summary(client_spans, server_spans, runs, before, after) -> dict:
    """Per-request critical path plus per-layer metrics of the traced phases.

    Client and shard read the same monotonic clock, so each request's
    time from due to claim splits exactly into: generator lateness,
    sending to the router, queue wait, execution, and claiming.
    """
    router_submit, executed = {}, {}
    for name, start, end, _, rid in server_spans:
        if name == "serve.router/queue_wait":
            router_submit[rid] = start
        elif name == "serve.service/predict" and end is not None:
            for seq in rid:
                executed[seq] = (start, end)
    stages = {k: [] for k in ("lateness", "to_router", "queue_wait", "execute", "to_claim")}
    latencies = []
    for records in runs.values():
        for r in records:
            if r["status"] != "ok" or r["seq"] not in executed:
                continue
            submitted = router_submit[r["seq"]]
            exec_start, exec_end = executed[r["seq"]]
            stages["lateness"].append(r["sent"] - r["due"])
            stages["to_router"].append(submitted - r["sent"])
            stages["queue_wait"].append(exec_start - submitted)
            stages["execute"].append(exec_end - exec_start)
            stages["to_claim"].append(r["claimed"] - exec_end)
            latencies.append(r["claimed"] - r["due"])
    count = max(len(latencies), 1)
    report = ["per-request critical path, traced phases "
              f"({len(latencies)} requests; means add up to the mean latency):",
              f"  {'stage':<12} {'mean_ms':>9} {'p50_ms':>9} {'p99_ms':>9}"]
    for stage, values in stages.items():
        report.append(f"  {stage:<12} {1000 * sum(values) / count:>9.3f} "
                      f"{1000 * common.quantile(values, 0.5):>9.3f} "
                      f"{1000 * common.quantile(values, 0.99):>9.3f}")
    report.append(f"  {'latency':<12} {1000 * sum(latencies) / count:>9.3f} "
                  f"{1000 * common.quantile(latencies, 0.5):>9.3f} "
                  f"{1000 * common.quantile(latencies, 0.99):>9.3f}")

    spans = list(client_spans)
    offset = len(spans)
    spans += [[n, s, e, None if p is None else p + offset, rid]
              for n, s, e, p, rid in server_spans]
    table = span_table(spans)
    client_submit = _durations_ms(client_spans, "serve.transport/client.submit")
    client_result = _durations_ms(client_spans, "serve.transport/client.result")
    handle_submit = _durations_ms(server_spans, "serve.transport/handle.submit")
    handle_result = _durations_ms(server_spans, "serve.transport/handle.result")
    calls = len(client_submit) + len(client_result)
    wire = ((sum(client_submit) + sum(client_result) - sum(handle_submit)
             - sum(handle_result)) / calls) if calls else 0.0
    queue_wait = _durations_ms(server_spans, "serve.router/queue_wait")
    router_before, router_after = before["server_router"], after["server_router"]
    flushes = {k: router_after["flushes"][k] - router_before["flushes"][k]
               for k in router_after["flushes"]}
    total_flushes = sum(flushes.values()) or 1
    batches = router_after["batches"] - router_before["batches"]
    served = router_after["served"] - router_before["served"]
    decode = _durations_ms(server_spans, "serve.transport/decode")
    per_layer = {
        "transport.client_submit_ms": common.median(client_submit),
        "transport.client_result_ms": common.median(client_result),
        "transport.handle_submit_ms": common.median(handle_submit),
        "transport.handle_result_ms": common.median(handle_result),
        "transport.decode_ms": sum(decode) / max(len(handle_submit), 1),
        "transport.wire_overhead_ms": wire,
        "router.queue_wait_p50_ms": common.quantile(queue_wait, 0.5),
        "router.queue_wait_p99_ms": common.quantile(queue_wait, 0.99),
        "router.batch_size_mean": served / batches if batches else 0.0,
        "server.job_wait_ms": common.median(_durations_ms(server_spans,
                                                          "serve.server/job_wait")),
        "server.execute_ms": common.median(_durations_ms(server_spans,
                                                         "serve.server/execute")),
        "server.worker_errors": (after["server"]["worker_errors"]
                                 - before["server"]["worker_errors"]),
        "service.predict_ms": common.median(_durations_ms(server_spans,
                                                          "serve.service/predict")),
        "service.forward_ms": common.median(_durations_ms(
            server_spans, "core.supernet/derived_forward")),
        "service.logit_hit_ratio": _ratio(after, before, "logits"),
        "service.batch_hit_ratio": _ratio(after, before, "batches"),
        "service.model_hit_ratio": _ratio(after, before, "models"),
    }
    for trigger in ("size", "deadline", "forced"):
        per_layer[f"router.flush_share_{trigger}"] = flushes.get(trigger, 0) / total_flushes
    report.append("serving layers, traced phases (ms are medians; decode and wire "
                  "overhead are means per request): " + ", ".join(
        f"{k}={v:.3f}" for k, v in per_layer.items()))
    label = {"backend": "shard default", "compiled": after["compiled"]["state"]}
    return {"table": table, "total_s": None, "label": label,
            "per_layer": per_layer, "report": report, "spans": spans}
