"""Worker-pool scheduler benchmark for the concurrent serving runtime.

Drives one deterministic stream of single-graph requests through an
:class:`repro.serve.InferenceServer` at worker counts 1 / 2 / 4 and emits
``BENCH_concurrency.json``:

* the driver thread submits requests round-robin over ``num_specs``
  strategy specs with the ticker disabled.  Dispatch is work-conserving
  (an idle worker takes a bucket at once), so micro-batch composition
  follows worker availability and differs between runs and worker
  counts.  Every ticket records the micro-batch it was served in, and
  every response is asserted **bit-identical** to a serial replay of
  that micro-batch on an independent, identically-seeded service —
  concurrency must change *when* and *with whom* a request runs, never
  *what* its micro-batch computes;
* the batch/plan caches are warmed before timing, so the measured work is
  micro-batch execution, not collation.

What the ratios measure: the stalled sweep's speedups are a **scheduler
test** — how well the pool overlaps an emulated, GIL-releasing offload
wait — not serving throughput of this host (see below).  The serving
figure of record is ``perfbench`` serve-wire.

Where the speedup comes from — and the single-core caveat
---------------------------------------------------------
A worker pool's win is overlap: while one worker is inside a micro-batch,
the others keep draining the queue.  On a multi-core host the overlapped
interval is the numpy/BLAS compute itself (those kernels release the
GIL).  In the deployment this server targets, the overlapped interval is
the **offload latency** — the worker thread blocks on an accelerator or
a remote model shard while the CPU is free.  This CI box has **one CPU
core** (``cpu_count`` is recorded in the JSON), so raw CPU overlap is
physically impossible here; the benchmark therefore emulates the
offload interval explicitly: the server's ``pre_execute`` hook sleeps
``offload_stall_s`` per micro-batch, calibrated as ``stall_factor`` x the
measured serial per-batch compute.  The sleep releases the GIL exactly
like a device wait, so the worker-count sweep measures precisely the
overlap machinery the pool exists for.  The pure-CPU sweep (stall 0) is
also recorded — expect ~flat numbers on one core, real scaling on many.

The acceptance contract is routed throughput at 4 workers >= 2x the
1-worker number (and >= 1.3x at 2 workers) on the stalled config, with
every response bit-identical to its micro-batch's serial replay.

Run modes:

* ``python benchmarks/bench_concurrency.py`` — full config, writes the
  JSON snapshot next to this file (``--smoke`` / ``REPRO_BENCH_TIER=smoke``
  for a fast sanity config that does not overwrite the snapshot).
* ``pytest benchmarks/bench_concurrency.py`` — smoke config, asserts the
  throughput/parity contract, does not overwrite the snapshot
  (``REPRO_BENCH_WRITE=1`` writes it; ``REPRO_BENCH_SKIP=1`` skips).
"""

import os
import time

import numpy as np

from conftest import (
    result_path, run_contract, smoke_mode, snapshot_main, write_if_requested)

RESULT_PATH = result_path("concurrency")

SMOKE = {"num_layers": 3, "emb_dim": 16, "dataset_size": 60, "requests": 96,
         "max_batch_size": 8, "num_specs": 2, "repeats": 2,
         "stall_factor": 3.0, "workers": (1, 2, 4)}
FULL = {"num_layers": 3, "emb_dim": 32, "dataset_size": 120, "requests": 256,
        "max_batch_size": 16, "num_specs": 4, "repeats": 3,
        "stall_factor": 3.0, "workers": (1, 2, 4)}


def _build(cfg, seed=0):
    from repro.core import DEFAULT_SPACE
    from repro.gnn import GNNEncoder
    from repro.graph import load_dataset
    from repro.serve import InferenceService

    dataset = load_dataset("bbbp", size=cfg["dataset_size"])

    def encoder_factory():
        return GNNEncoder("gin", num_layers=cfg["num_layers"],
                          emb_dim=cfg["emb_dim"], dropout=0.0, seed=seed)

    def make_service():
        return InferenceService(encoder_factory, dataset.num_tasks, seed=seed)

    rng = np.random.default_rng((seed, 91))
    specs = [DEFAULT_SPACE.random_spec(cfg["num_layers"], rng)
             for _ in range(cfg["num_specs"])]
    stream = [(dataset.graphs[i % len(dataset.graphs)],
               specs[i % len(specs)]) for i in range(cfg["requests"])]
    return dataset, make_service, specs, stream


def _run_serial(service, stream, max_batch_size):
    """The stream through an inline router: cache warm-up and the serial
    per-batch compute the offload stall is calibrated against."""
    from repro.serve import BatchingRouter

    router = BatchingRouter(service, max_batch_size=max_batch_size,
                            max_delay=10_000, max_pending=10_000)
    tickets = [router.submit(graph, spec) for graph, spec in stream]
    router.flush()
    return [t.result() for t in tickets], router.stats()


def _run_server(service, stream, max_batch_size, num_workers, stall_s):
    """The stream through a worker-pool server; returns (tickets, seconds,
    micro-batches)."""
    from repro.serve import InferenceServer

    pre_execute = (lambda: time.sleep(stall_s)) if stall_s else None
    server = InferenceServer(service, num_workers=num_workers,
                             max_batch_size=max_batch_size, max_delay=10_000,
                             tick_interval_s=None, queue_size=1024,
                             pre_execute=pre_execute)
    with server:
        start = time.perf_counter()
        tickets = [server.submit(graph, spec) for graph, spec in stream]
        for ticket in tickets:
            ticket.wait(timeout=600)
        elapsed = time.perf_counter() - start
    if server.worker_errors:
        raise RuntimeError(f"worker errors: {server.worker_errors!r}")
    return tickets, elapsed, server.router.batches


def _assert_replay_parity(reference, tickets, replays):
    """Every row == the serial replay of the micro-batch it was served in.

    ``replays`` memoizes one reference forward per distinct micro-batch."""
    for ticket in tickets:
        key = (tuple(id(g) for g in ticket.batch_graphs), ticket.spec)
        if key not in replays:
            replays[key] = reference.predict(
                list(ticket.batch_graphs), ticket.spec,
                batch_size=len(ticket.batch_graphs))
        assert np.array_equal(ticket.result(),
                              replays[key][ticket.batch_index]), \
            "parity violation"


def bench_worker_sweep(cfg, seed=0):
    dataset, make_service, specs, stream = _build(cfg, seed)
    requests = cfg["requests"]

    # Replay reference on an independent, identically-seeded service.
    reference = make_service()
    replays = {}

    # Shared service for the sweep: models built + caches warmed once, so
    # every worker count times the same steady state.
    service = make_service()
    _, serial_stats = _run_serial(service, stream, cfg["max_batch_size"])
    start = time.perf_counter()
    _run_serial(service, stream, cfg["max_batch_size"])
    serial_steady_s = time.perf_counter() - start
    num_batches = serial_stats["batches"]
    batch_compute_s = serial_steady_s / num_batches
    stall_s = cfg["stall_factor"] * batch_compute_s

    def sweep(stall):
        per_worker = {}
        for workers in cfg["workers"]:
            best, best_batches = np.inf, 0
            for _ in range(cfg["repeats"]):
                tickets, elapsed, batches = _run_server(
                    service, stream, cfg["max_batch_size"], workers, stall)
                assert len(tickets) == requests
                _assert_replay_parity(reference, tickets, replays)
                if elapsed < best:
                    best, best_batches = elapsed, batches
            per_worker[str(workers)] = {
                "seconds": best,
                "requests_per_s": requests / best,
                "micro_batches": best_batches,
            }
        base = per_worker[str(cfg["workers"][0])]["requests_per_s"]
        for entry in per_worker.values():
            entry["speedup_vs_1_worker"] = entry["requests_per_s"] / base
        return per_worker

    stalled = sweep(stall_s)
    pure_cpu = sweep(0.0)
    return {
        "requests": requests,
        "num_specs": len(specs),
        "max_batch_size": cfg["max_batch_size"],
        "serial_micro_batches": num_batches,
        "cpu_count": os.cpu_count(),
        "serial_steady_s": serial_steady_s,
        "batch_compute_s": batch_compute_s,
        "offload_stall_s": stall_s,
        "stall_factor": cfg["stall_factor"],
        "parity": "bit-identical to a serial replay of each ticket's "
                  "micro-batch (asserted per run)",
        "measures": "scheduler overlap of an emulated offload stall "
                    "(stalled_offload) and of raw CPU (pure_cpu); not "
                    "serving throughput, see perfbench serve-wire",
        "stalled_offload": stalled,
        "pure_cpu": pure_cpu,
        "speedup_4_vs_1_workers": stalled[str(cfg["workers"][-1])][
            "speedup_vs_1_worker"],
    }


def run_benchmark(cfg=None, seed=0):
    cfg = cfg or (SMOKE if smoke_mode() else FULL)
    return {
        "benchmark": "concurrency",
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in cfg.items()},
        "worker_sweep": bench_worker_sweep(cfg, seed),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke tier)
# ----------------------------------------------------------------------
def test_concurrency_throughput_contract():
    results = run_contract(run_benchmark, SMOKE)
    sweep = results["worker_sweep"]
    # Parity is asserted inside the sweep (bit-identical rows per run).
    assert sweep["speedup_4_vs_1_workers"] >= 2.0, sweep
    assert sweep["stalled_offload"]["2"]["speedup_vs_1_worker"] >= 1.3, sweep
    write_if_requested(results, RESULT_PATH)


if __name__ == "__main__":
    snapshot_main(run_benchmark, RESULT_PATH)
