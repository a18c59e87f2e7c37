"""Microbenchmark for the segment-kernel layer (repro.nn.segment).

Times the four segment reductions every forward pass bottoms out in —
``segment_sum/mean/max/softmax`` — on a representative batched-molecule
workload (all molecules of a synthetic-MoleculeNet split collated into one
batch, E ~= 50k directed edges), comparing:

1. **plan-backed vs legacy** — the registered ops' plan kernels (the C
   segment loops where the kernel library built, else a CSR matvec and a
   rank-sliced vertical max) against the ``np.add.at`` /
   ``np.maximum.at`` oracles of ``tests/oracles.py``.  The headline
   ``kernel_s`` numbers time the op forward (the part the kernels
   change); ``roundtrip_s`` times forward + full backward for context —
   the adjoint gathers are the same on both sides, so roundtrip ratios
   are diluted by identical autograd machinery.
2. **plan-cached vs plan-per-call** — reusing one precomputed
   :class:`SegmentPlan` (what ``Batch`` caching gives every model-level
   call) against rebuilding the plan from the raw index array per call.
3. **gather-backward scatter** — the ``gather`` / ``__getitem__``
   adjoint for embedding-id columns of cached batches: the ``scatter_add``
   op (the C scatter loop; a plan sum without the library) against the
   ``np.add.at`` oracle.
4. **compiled C kernels** — the JIT-built ctypes kernels
   (``repro.nn.compiled``) inside the registered ops against the same
   ops with the library forced off in-process (``reduceat_*`` keys: CSR
   matvec / vertical max) and against the legacy oracles, per op; the
   fused LSTM-step scan against the tape-composition reference
   (``tests/oracles.py``; ``numpy_scan_s`` times the one-node numpy
   scan, ``lstm_scan``'s oracle); and the
   one-time JIT build cost with its disk-cache reload and the number of
   scan calls that amortize it.  Contract: >=1.5x over the numpy kernels
   on the fused scan and on at least one segment reduction.

5. **grad-mode layers** (``grad_layers``) — forward + backward of
   ``GINConv`` and ``LSTMFusion`` at paper-loop shapes (one training
   batch of 32 molecules, width 32, K=5 layers) as one-node ops
   (``gin_message``, ``lstm_scan``, ``linear``) against the tape
   compositions they replaced (``tests/oracles.py``), by paired
   median-of-ratios, with the kernel library loaded and forced off.

Sections 1 and 3 run twice: as the process finds the kernel library
(``backends`` / ``gather_backward``) and with it forced off
(``no_compiler``), which is what a machine without a C compiler runs.

Per-op feature widths mirror the model hot paths: message aggregation
(sum/mean/max) runs at the encoder width, attention softmax at GAT's
per-head score width.

Emits ``BENCH_segment_kernels.json`` next to this file.

Run modes:

* ``python benchmarks/bench_segment_kernels.py`` — full config (E ~= 50k),
  writes the JSON snapshot.
* ``pytest benchmarks/bench_segment_kernels.py`` — quick tier, asserts the
  speedup contract, does not overwrite the snapshot (set
  ``REPRO_BENCH_WRITE=1`` to write it; set ``REPRO_BENCH_SKIP=1`` to skip
  entirely).
"""

import contextlib
import json
import os
import sys
import time

import numpy as np

RESULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_segment_kernels.json")

#: The repository root, so ``tests.oracles`` (the references the ops are
#: timed against) imports when run as a script.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: op -> feature width factor: encoder-width features for aggregation ops,
#: per-head attention scores for softmax.
OP_DIMS = {"segment_sum": "emb", "segment_mean": "emb", "segment_max": "emb",
           "segment_softmax": "heads"}


def _edge_workload(num_graphs, seed=0):
    """One big collated batch of molecules: edge-level segment workload."""
    from repro.graph import Batch, load_dataset

    dataset = load_dataset("bbbp", size=num_graphs)
    batch = Batch(dataset.graphs)
    return batch.edge_index[1], batch.num_nodes, batch.num_edges


def _time(fn, repeats):
    """Best-of-``repeats`` wall time of ``fn`` (seconds)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_times(fn_a, fn_b, rounds):
    """Per-round wall times of two functions run adjacent in time.

    Each round times one call of each, alternating which goes first to
    cancel ordering bias; sustained load drift hits both members of a
    round equally, so per-round ratios stay meaningful on shared
    machines where two separate best-of loops would not.
    """
    times_a, times_b = [], []
    for r in range(rounds):
        for fn, times in ([(fn_a, times_a), (fn_b, times_b)] if r % 2 == 0
                          else [(fn_b, times_b), (fn_a, times_a)]):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return np.asarray(times_a), np.asarray(times_b)


@contextlib.contextmanager
def _library_off():
    """Force the C kernel library off in-process: every kernel sees
    ``build.load()`` return None, as on a machine without a compiler."""
    from repro.nn.compiled import build

    load = build.load
    build.load = lambda: None
    try:
        yield
    finally:
        build.load = load


def _get_op(op_name):
    from repro.nn import segment_max, segment_mean, segment_softmax, segment_sum

    return {"segment_sum": segment_sum, "segment_mean": segment_mean,
            "segment_max": segment_max, "segment_softmax": segment_softmax}[op_name]


def bench_backends(num_graphs=1800, emb_dim=32, num_heads=2, repeats=5, seed=0):
    """Plan-backed kernels vs legacy, and plan-cached vs plan-per-call."""
    from repro.nn import SegmentPlan, Tensor, no_grad

    oracles = _oracles().ORACLES
    ids, n, num_edges = _edge_workload(num_graphs, seed)
    plan = SegmentPlan(ids, n)
    # Warm the lazy plan caches so ``plan-cached`` times steady state.
    plan.csr(), plan.rank_slices()
    rng = np.random.default_rng(seed)

    def kernel_sweep(op, data, index, num_segments):
        def run():
            with no_grad():
                op(Tensor(data), index, num_segments)
        return run

    def roundtrip_sweep(op, data, index, num_segments):
        def run():
            x = Tensor(data, requires_grad=True)
            op(x, index, num_segments).sum().backward()
        return run

    per_op = {}
    for op_name, width_kind in OP_DIMS.items():
        op, legacy = _get_op(op_name), oracles[op_name]
        width = emb_dim if width_kind == "emb" else num_heads
        data = rng.normal(size=(num_edges, width))
        row = {
            "feature_dim": width,
            "legacy_kernel_s": _time(
                kernel_sweep(legacy, data, ids, n), repeats),
            "plan_kernel_s": _time(
                kernel_sweep(op, data, plan, None), repeats),
            "per_call_kernel_s": _time(
                kernel_sweep(op, data, ids, n), repeats),
            "legacy_roundtrip_s": _time(
                roundtrip_sweep(legacy, data, ids, n), repeats),
            "plan_roundtrip_s": _time(
                roundtrip_sweep(op, data, plan, None), repeats),
        }
        row["kernel_speedup_plan_vs_legacy"] = (
            row["legacy_kernel_s"] / row["plan_kernel_s"])
        row["kernel_speedup_plan_vs_per_call"] = (
            row["per_call_kernel_s"] / row["plan_kernel_s"])
        row["roundtrip_speedup_plan_vs_legacy"] = (
            row["legacy_roundtrip_s"] / row["plan_roundtrip_s"])
        per_op[op_name] = row

    def total(key):
        return sum(v[key] for v in per_op.values())

    return {
        "num_graphs": num_graphs,
        "num_edges": num_edges,
        "num_nodes": n,
        "ops": per_op,
        "aggregate_kernel_speedup_plan_vs_legacy":
            total("legacy_kernel_s") / total("plan_kernel_s"),
        "aggregate_roundtrip_speedup_plan_vs_legacy":
            total("legacy_roundtrip_s") / total("plan_roundtrip_s"),
    }


def bench_gather_backward(num_graphs=1800, emb_dim=32, repeats=5, seed=0):
    """Scatter-add adjoint of embedding-style gathers: cached plan vs add.at.

    The workload mirrors ``Embedding`` lookups on a cached batch: the same
    atom-type column (one view of ``batch.x`` per forward) gathers rows of
    a small weight table every epoch, and every backward scatter-adds the
    output gradient back onto the table.
    """
    from repro.nn import Tensor, gather, scatter_add
    from repro.graph import Batch, load_dataset

    add_at_scatter = _oracles().ORACLES["scatter_add"]

    dataset = load_dataset("bbbp", size=num_graphs)
    batch = Batch(dataset.graphs)
    ids = batch.x[:, 0]          # stable storage: the repeated-index case
    num_rows = int(ids.max()) + 1
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(ids.size, emb_dim))
    weight = rng.normal(size=(num_rows, emb_dim))

    def legacy_scatter():
        add_at_scatter(g, ids, num_rows)

    def plan_scatter():
        scatter_add(g, ids, num_rows)

    def roundtrip():
        x = Tensor(weight, requires_grad=True)
        gather(x, batch.x[:, 0]).backward(g)

    plan_scatter()  # warm-up: first-use library load
    # The legacy roundtrip runs with the adjoint's scatter_add swapped
    # for the np.add.at oracle.
    with _oracles_installed():
        legacy_roundtrip_s = _time(roundtrip, repeats)
    row = {
        "num_items": int(ids.size),
        "num_rows": num_rows,
        "feature_dim": emb_dim,
        "legacy_scatter_s": _time(legacy_scatter, repeats),
        "plan_scatter_s": _time(plan_scatter, repeats),
        "legacy_roundtrip_s": legacy_roundtrip_s,
        "plan_roundtrip_s": _time(roundtrip, repeats),
    }
    row["scatter_speedup_plan_vs_legacy"] = (
        row["legacy_scatter_s"] / row["plan_scatter_s"])
    row["roundtrip_speedup_plan_vs_legacy"] = (
        row["legacy_roundtrip_s"] / row["plan_roundtrip_s"])
    return row


def bench_plan_build(num_graphs=1800, repeats=3, seed=0):
    """One-off cost of plan construction (amortized away by Batch caching)."""
    from repro.nn import SegmentPlan

    ids, n, num_edges = _edge_workload(num_graphs, seed)
    build_s = _time(lambda: SegmentPlan(ids, n), repeats)

    def build_full():
        plan = SegmentPlan(ids, n)
        plan.csr(), plan.rank_slices()

    return {
        "plan_build_s": build_s,
        "plan_build_with_kernel_caches_s": _time(build_full, repeats),
        "num_edges": num_edges,
    }


def bench_compiled(num_graphs=1800, emb_dim=32, num_heads=2, repeats=5,
                   seed=0, lstm_steps=16, lstm_batch=128, lstm_hidden=32):
    """Compiled C kernels vs reduceat/legacy + JIT build amortization.

    The build numbers time the two one-off costs real processes pay:
    ``first_build_s`` (cc -O3 into an empty cache — first process on a
    machine) and ``cached_reload_s`` (dlopen of the cached object —
    every later process).  ``scan_calls_to_amortize_build`` divides the
    build cost by the per-call saving of the fused LSTM scan.
    """
    import shutil
    import tempfile

    from repro.nn import SegmentPlan, Tensor, no_grad
    from repro.nn.compiled import build
    from repro.nn.ops import lstm_scan

    if build.find_compiler() is None:
        return {"available": False}

    tmp = tempfile.mkdtemp(prefix="repro-bench-compiled-")
    prior = os.environ.get("REPRO_COMPILED_CACHE")
    try:
        os.environ["REPRO_COMPILED_CACHE"] = tmp
        build.reset()
        first_build_s = _time(build.load, 1)
        build.reset()
        cached_reload_s = _time(build.load, 1)
    finally:
        if prior is None:
            os.environ.pop("REPRO_COMPILED_CACHE", None)
        else:
            os.environ["REPRO_COMPILED_CACHE"] = prior
        build.reset()
        shutil.rmtree(tmp, ignore_errors=True)
    build.load()  # steady state (default cache) for the kernel timings

    ids, n, num_edges = _edge_workload(num_graphs, seed)
    plan = SegmentPlan(ids, n)
    plan.csr(), plan.rank_slices()
    rng = np.random.default_rng(seed)

    oracles = _oracles()

    def kernel_sweep(op, data, index, num_segments, library=True):
        def run():
            with no_grad(), (
                    contextlib.nullcontext() if library else _library_off()):
                op(Tensor(data), index, num_segments)
        return run

    per_op = {}
    for op_name, width_kind in OP_DIMS.items():
        op = _get_op(op_name)
        width = emb_dim if width_kind == "emb" else num_heads
        data = rng.normal(size=(num_edges, width))
        row = {
            "feature_dim": width,
            "compiled_kernel_s": _time(
                kernel_sweep(op, data, plan, None), repeats),
            "reduceat_kernel_s": _time(
                kernel_sweep(op, data, plan, None, library=False), repeats),
            "legacy_kernel_s": _time(
                kernel_sweep(oracles.ORACLES[op_name], data, ids, n),
                repeats),
        }
        row["kernel_speedup_compiled_vs_reduceat"] = (
            row["reduceat_kernel_s"] / row["compiled_kernel_s"])
        row["kernel_speedup_compiled_vs_legacy"] = (
            row["legacy_kernel_s"] / row["compiled_kernel_s"])
        per_op[op_name] = row

    # Fused LSTM-step scan forward: the hybrid GEMM + C elementwise
    # kernel vs the tape-composition reference, on a Set2Set/fusion-sized
    # workload.
    x = rng.normal(size=(lstm_steps, lstm_batch, emb_dim))
    w_x = 0.4 * rng.normal(size=(emb_dim, 4 * lstm_hidden))
    w_h = 0.4 * rng.normal(size=(lstm_hidden, 4 * lstm_hidden))
    bias = rng.normal(size=4 * lstm_hidden)

    def scan_sweep(scan):
        def run():
            with no_grad():
                scan(Tensor(x), w_x, w_h, bias)
        return run

    compiled_t, reference_t = _paired_times(
        scan_sweep(lstm_scan), scan_sweep(oracles.lstm_scan_reference),
        max(2 * repeats, 6))
    lstm_row = {
        "steps": lstm_steps,
        "batch": lstm_batch,
        "input_dim": emb_dim,
        "hidden_dim": lstm_hidden,
        "compiled_scan_s": float(compiled_t.min()),
        "reference_scan_s": float(reference_t.min()),
        "numpy_scan_s": _time(scan_sweep(oracles.ORACLES["lstm_scan"]),
                              repeats),
        # contracted figure: median of per-round ratios (spike-robust)
        "scan_speedup_compiled_vs_reference": float(
            np.median(reference_t / compiled_t)),
    }
    saving = lstm_row["reference_scan_s"] - lstm_row["compiled_scan_s"]
    amortize = first_build_s / saving if saving > 0 else float("inf")

    return {
        "available": True,
        "build": {
            "first_build_s": first_build_s,
            "cached_reload_s": cached_reload_s,
            "scan_calls_to_amortize_build": amortize,
        },
        "num_edges": num_edges,
        "ops": per_op,
        "lstm_scan": lstm_row,
        "best_segment_speedup_compiled_vs_reduceat": max(
            row["kernel_speedup_compiled_vs_reduceat"]
            for row in per_op.values()),
    }


def _oracles():
    """``tests.oracles``: the ``np.add.at`` references of the kernel ops
    and the tape compositions the one-node ops replaced."""
    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    from tests import oracles

    return oracles


def _oracles_installed():
    """``tests.conftest.oracles_installed``: every op swapped for its
    oracle in the loaded ``repro`` modules."""
    _oracles()
    from tests.conftest import oracles_installed

    return oracles_installed()


def bench_grad_layers(num_graphs=32, emb_dim=32, num_layers=5, rounds=40,
                      seed=0):
    """Grad-mode forward + backward of ``GINConv`` and ``LSTMFusion``:
    the one-node ops against the old tape compositions.

    Shapes follow paper-loop: one training batch of ``num_graphs``
    synthetic-bbbp molecules (~400 nodes, ~850 edges), width
    ``emb_dim``, ``num_layers`` layer representations into the fusion.
    Each side runs with fresh grad-tracked inputs and cleared parameter
    gradients; the loss is the output's plain sum.  ``speedup`` is the
    median of the per-round ``old / new`` ratios (``speedup_iqr`` their
    quartiles), on each leg: kernel library ``loaded`` and forced off
    (``no_compiler``).
    """
    from repro.gnn import GNNEncoder
    from repro.gnn.fusion import LSTMFusion
    from repro.graph import Batch, load_dataset
    from repro.nn import Tensor

    oracles = _oracles()
    rng = np.random.default_rng(seed)
    batch = Batch(load_dataset("bbbp", size=max(num_graphs, 240))
                  .graphs[:num_graphs])
    batch.edge_plan(), batch.edge_src_plan()
    conv = GNNEncoder("gin", num_layers=num_layers, emb_dim=emb_dim,
                      dropout=0.0, seed=seed).convs[0]
    fusion = LSTMFusion(num_layers, emb_dim, rng)
    h_data = rng.normal(size=(batch.num_nodes, emb_dim))
    layer_data = [rng.normal(size=(batch.num_nodes, emb_dim))
                  for _ in range(num_layers)]

    def step(module, forward, data):
        def run():
            for p in module.parameters():
                p.grad = None
            inputs = [Tensor(d, requires_grad=True) for d in data]
            forward(inputs).sum().backward()
        return run

    cases = {
        "gin_conv": (
            conv, [h_data],
            lambda h: conv(h[0], batch.edge_index, batch.edge_attr,
                           ctx=batch),
            lambda h: oracles.gin_conv_reference(conv, h[0], batch)),
        "lstm_fusion": (
            fusion, layer_data, fusion,
            lambda layers: oracles.lstm_fusion_reference(fusion, layers)),
    }
    out = {"num_nodes": batch.num_nodes, "num_edges": batch.num_edges,
           "emb_dim": emb_dim, "num_layers": num_layers, "rounds": rounds}
    for leg, library in (("loaded", True), ("no_compiler", False)):
        rows = {}
        with contextlib.nullcontext() if library else _library_off():
            for name, (module, data, new, old) in cases.items():
                new_run, old_run = (step(module, new, data),
                                    step(module, old, data))
                for _ in range(3):  # warm-up: build, plans, BLAS threads
                    new_run(), old_run()
                new_t, old_t = _paired_times(new_run, old_run, rounds)
                ratios = old_t / new_t
                rows[name] = {
                    "new_s": float(np.median(new_t)),
                    "old_s": float(np.median(old_t)),
                    "speedup": float(np.median(ratios)),
                    "speedup_iqr": [float(q) for q in
                                    np.percentile(ratios, [25, 75])],
                }
        out[leg] = rows
    return out


def run_benchmark(num_graphs=1800, emb_dim=32, num_heads=2, repeats=5, seed=0):
    config = {
        "num_graphs": num_graphs,
        "emb_dim": emb_dim,
        "num_heads": num_heads,
        "repeats": repeats,
        "seed": seed,
    }
    from repro.nn.compiled import compiled_status

    with _library_off():
        no_compiler = {
            "backends": bench_backends(num_graphs, emb_dim, num_heads,
                                       repeats, seed),
            "gather_backward": bench_gather_backward(num_graphs, emb_dim,
                                                     repeats, seed),
        }
    return {
        "benchmark": "segment_kernels",
        "config": config,
        "compiled_state": compiled_status()["state"],
        "backends": bench_backends(num_graphs, emb_dim, num_heads, repeats, seed),
        "gather_backward": bench_gather_backward(num_graphs, emb_dim, repeats,
                                                 seed),
        "no_compiler": no_compiler,
        "plan_build": bench_plan_build(num_graphs, max(repeats // 2, 1), seed),
        "compiled": bench_compiled(num_graphs, emb_dim, num_heads, repeats,
                                   seed),
        "grad_layers": bench_grad_layers(seed=seed, rounds=8 * repeats),
    }


# ----------------------------------------------------------------------
# pytest entry point (quick tier)
# ----------------------------------------------------------------------
def test_segment_kernel_speedup_contract():
    import pytest

    if os.environ.get("REPRO_BENCH_SKIP") == "1":
        pytest.skip("REPRO_BENCH_SKIP=1")
    results = run_benchmark(num_graphs=400, emb_dim=16, repeats=3)
    print(json.dumps(results, indent=2))
    # The same contract on both legs: as built, and with no compiler.
    for leg in (results, results["no_compiler"]):
        backends = leg["backends"]
        assert backends["aggregate_kernel_speedup_plan_vs_legacy"] >= 3.0, \
            backends
        for op_name, row in backends["ops"].items():
            # Per-op floors are loose (timer noise); the aggregate is the
            # contract.
            assert row["kernel_speedup_plan_vs_legacy"] >= 1.2, (op_name, row)
            assert row["kernel_speedup_plan_vs_per_call"] >= 0.9, \
                (op_name, row)
            assert row["roundtrip_speedup_plan_vs_legacy"] >= 0.95, \
                (op_name, row)
        scatter = leg["gather_backward"]
        assert scatter["scatter_speedup_plan_vs_legacy"] >= 2.0, scatter
        assert scatter["roundtrip_speedup_plan_vs_legacy"] >= 1.0, scatter
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        with open(RESULT_PATH, "w") as f:
            json.dump(results, f, indent=2)


def test_compiled_backend_speedup_contract():
    """Smoke-tier contract for the compiled kernels (auto-skips when no
    C compiler is discovered): >=1.5x over the numpy kernels on the fused
    LSTM scan and on at least one segment reduction."""
    import pytest

    from repro.nn.compiled import build

    if os.environ.get("REPRO_BENCH_SKIP") == "1":
        pytest.skip("REPRO_BENCH_SKIP=1")
    if build.find_compiler() is None:
        pytest.skip("no C compiler discovered")
    results = bench_compiled(num_graphs=400, emb_dim=16, repeats=3)
    print(json.dumps(results, indent=2))
    assert results["available"] is True
    lstm = results["lstm_scan"]
    assert lstm["scan_speedup_compiled_vs_reference"] >= 1.5, lstm
    assert results["best_segment_speedup_compiled_vs_reduceat"] >= 1.5, \
        results["ops"]
    build_info = results["build"]
    assert build_info["cached_reload_s"] < build_info["first_build_s"], \
        build_info


if __name__ == "__main__":
    results = run_benchmark()
    print(json.dumps(results, indent=2))
    with open(RESULT_PATH, "w") as f:
        json.dump(results, f, indent=2)
    print(f"\nwrote {RESULT_PATH}")
