"""Sharded-cluster throughput benchmark: shard counts 1 / 2 / 4.

Drives one deterministic stream of single-graph requests through a
:class:`repro.serve.ClusterRouter` over real spawned shard processes at
shard counts 1 / 2 / 4 and emits ``BENCH_cluster.json``:

* specs are sampled until their affinity homes cover all four shards of
  the widest sweep point (and therefore balance over two — ``hash % 2 ==
  (hash % 4) % 2``), so the shard counts differ only in how much of the
  stream each process owns;
* shard servers run ``max_batch_size=1`` and one worker, so every request
  is its own micro-batch and every response is asserted **bit-identical**
  to ``service.predict([graph], spec, batch_size=1)`` on an independent,
  identically-seeded local service — distributing the stream must change
  *where* a request runs, never *what* it computes;
* every request runs its forward (responses are never memoized), and each
  sweep point gets one untimed warm-up pass (model build + cache fill),
  so the timed region is steady-state serving.

Where the speedup comes from — and the single-core caveat
---------------------------------------------------------
This CI box has **one CPU core** (``cpu_count`` is in the JSON), so raw
CPU overlap across shard processes is physically impossible here.  Like
``bench_concurrency.py``, the bench emulates the offloaded deployment the
cluster targets: each shard's ``pre_execute`` hook sleeps
``offload_stall_s`` per micro-batch (``stall_factor`` x the measured
serial per-request compute, floored at ``min_stall_s``), releasing the
GIL exactly like a device wait.  Stalls on *different shards* overlap;
within one shard they serialize — which is precisely the scaling the
shard sweep measures.  The in-process serial number is recorded alongside
for the single-process comparison.  The ratios are therefore a scheduler
test, not serving throughput (the JSON's ``measures`` field says so);
serving latency and throughput of record come from perfbench serve-wire.

The acceptance contract is routed throughput at 4 shards >= 2x the
1-shard number, with bit-identical logits.

Run modes:

* ``python benchmarks/bench_cluster.py`` — full config, writes the JSON
  snapshot next to this file (``--smoke`` / ``REPRO_BENCH_TIER=smoke``
  for a fast sanity config that does not overwrite the snapshot).
* ``pytest benchmarks/bench_cluster.py`` — smoke config, asserts the
  throughput/parity contract, does not overwrite the snapshot
  (``REPRO_BENCH_WRITE=1`` writes it; ``REPRO_BENCH_SKIP=1`` skips).
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from conftest import (
    result_path, run_contract, smoke_mode, snapshot_main, write_if_requested)

RESULT_PATH = result_path("cluster")

SMOKE = {"num_layers": 2, "emb_dim": 16, "dataset_size": 48, "requests": 32,
         "repeats": 2, "stall_factor": 4.0, "min_stall_s": 0.02,
         "driver_threads": 8, "shards": (1, 2, 4)}
FULL = {"num_layers": 3, "emb_dim": 32, "dataset_size": 96, "requests": 96,
        "repeats": 3, "stall_factor": 4.0, "min_stall_s": 0.02,
        "driver_threads": 8, "shards": (1, 2, 4)}


def _build(cfg, seed=0):
    from repro.core import DEFAULT_SPACE
    from repro.graph import load_dataset
    from repro.serve import ShardServiceConfig, spec_affinity

    config = ShardServiceConfig(
        dataset="bbbp", size=cfg["dataset_size"],
        num_layers=cfg["num_layers"], emb_dim=cfg["emb_dim"],
        batch_size=8, seed=seed)
    dataset = load_dataset("bbbp", size=cfg["dataset_size"])

    # One spec per affinity home of the widest sweep point, so 4 shards
    # each own a spec and 2 shards split them evenly.
    max_shards = max(cfg["shards"])
    rng = np.random.default_rng((seed, 92))
    by_home = {}
    while len(by_home) < max_shards:
        spec = DEFAULT_SPACE.random_spec(cfg["num_layers"], rng)
        by_home.setdefault(spec_affinity(spec, max_shards), spec)
    specs = [by_home[home] for home in sorted(by_home)]
    stream = [(dataset.graphs[i % len(dataset.graphs)],
               specs[i % len(specs)]) for i in range(cfg["requests"])]
    return config, specs, stream


def _run_serial(service, stream):
    """The stream, one batch-of-one at a time: the bit-parity reference."""
    return [service.predict([graph], spec, batch_size=1)[0]
            for graph, spec in stream]


def _run_cluster(cluster, stream, driver_threads):
    """The stream through the cluster, driver-threaded; (rows, seconds)."""
    def one(item):
        graph, spec = item
        return cluster.predict(graph, spec, timeout_s=300)

    with ThreadPoolExecutor(max_workers=driver_threads) as pool:
        start = time.perf_counter()
        rows = list(pool.map(one, stream))
        elapsed = time.perf_counter() - start
    return rows, elapsed


def bench_shard_sweep(cfg, seed=0):
    from repro.serve import ClusterRouter, launch_shards

    config, specs, stream = _build(cfg, seed)
    requests = cfg["requests"]

    # Serial single-process reference, independent and identically seeded.
    reference = config()
    serial_rows = _run_serial(reference, stream)      # warm-up + reference
    start = time.perf_counter()
    _run_serial(reference, stream)
    serial_steady_s = time.perf_counter() - start
    per_request_s = serial_steady_s / requests
    stall_s = max(cfg["stall_factor"] * per_request_s, cfg["min_stall_s"])

    per_shard_count = {}
    for num_shards in cfg["shards"]:
        shards = launch_shards(config, num_shards, num_workers=1,
                               max_batch_size=1, tick_interval_s=0.002,
                               offload_stall_s=stall_s)
        try:
            cluster = ClusterRouter([s.client(timeout_s=300) for s in shards])
            _run_cluster(cluster, stream, cfg["driver_threads"])  # warm-up
            best = np.inf
            for _ in range(cfg["repeats"]):
                rows, elapsed = _run_cluster(cluster, stream,
                                             cfg["driver_threads"])
                assert len(rows) == requests
                for row, ref in zip(rows, serial_rows):
                    assert np.array_equal(row, ref), "parity violation"
                best = min(best, elapsed)
            dispatched = cluster.stats()["cluster"]["dispatched"]
        finally:
            for shard in shards:
                shard.stop()
        per_shard_count[str(num_shards)] = {
            "seconds": best,
            "requests_per_s": requests / best,
            "dispatched_last_run": dispatched,
        }
    base = per_shard_count[str(cfg["shards"][0])]["requests_per_s"]
    for entry in per_shard_count.values():
        entry["speedup_vs_1_shard"] = entry["requests_per_s"] / base
    return {
        "requests": requests,
        "num_specs": len(specs),
        "cpu_count": os.cpu_count(),
        "serial_steady_s": serial_steady_s,
        "serial_requests_per_s": requests / serial_steady_s,
        "per_request_compute_s": per_request_s,
        "offload_stall_s": stall_s,
        "stall_factor": cfg["stall_factor"],
        "parity": "bit-identical to serial service.predict "
                  "(asserted per run)",
        "measures": f"scheduler overlap of an emulated {stall_s * 1000:.0f} ms "
                    "offload stall; not serving throughput, see perfbench "
                    "serve-wire",
        "shard_sweep": per_shard_count,
        "speedup_4_vs_1_shards": per_shard_count[str(cfg["shards"][-1])][
            "speedup_vs_1_shard"],
    }


def run_benchmark(cfg=None, seed=0):
    cfg = cfg or (SMOKE if smoke_mode() else FULL)
    return {
        "benchmark": "cluster",
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in cfg.items()},
        "shard_sweep": bench_shard_sweep(cfg, seed),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke tier)
# ----------------------------------------------------------------------
def test_cluster_throughput_contract():
    results = run_contract(run_benchmark, SMOKE)
    sweep = results["shard_sweep"]
    # Parity is asserted inside the sweep (bit-identical rows per run).
    assert sweep["speedup_4_vs_1_shards"] >= 2.0, sweep
    assert sweep["shard_sweep"]["2"]["speedup_vs_1_shard"] >= 1.3, sweep
    write_if_requested(results, RESULT_PATH)


if __name__ == "__main__":
    snapshot_main(run_benchmark, RESULT_PATH)
