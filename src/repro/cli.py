"""Command-line interface: paper tables plus the batch-serving demo.

Usage::

    python -m repro.cli table6 --tier smoke
    python -m repro.cli table7
    python -m repro.cli table9 --datasets bbbp bace
    python -m repro.cli space           # Remark 3 space-size check
    python -m repro.cli score --specs 8 # search, then fan-out spec scoring
    python -m repro.cli serve           # + repeated-request throughput demo
    python -m repro.cli route           # dynamic-batching router demo
    python -m repro.cli serve-forever   # concurrent HTTP serving runtime

``score`` runs a short strategy search and then scores candidate specs
through :class:`repro.serve.InferenceService` — every spec is evaluated
against one shared, pre-collated batch cache via the supernet's one-hot
fast path.  ``serve`` additionally drives repeated prediction requests
against the persistent derived model and reports requests/sec.  ``route``
feeds a stream of *single-graph* requests through the
:class:`repro.serve.BatchingRouter` (server-side micro-batches, flush on
size or simulated-clock deadline) and compares its throughput against the
per-request batch-of-one path.  ``serve-forever`` stands up the full
concurrent runtime — an :class:`repro.serve.InferenceServer` (a
work-conserving worker pool + real-clock ticker) behind the stdlib
HTTP/JSON transport — and serves
until interrupted (or for ``--duration`` seconds; ``--self-test N`` runs
N loopback requests through the HTTP client and exits, as a deployment
smoke test).  Table results are printed in the paper's row layout (see
:mod:`repro.experiments.tables`).
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import configs, runner, tables

__all__ = ["main", "build_parser"]

_TABLES = {
    "table6": (
        lambda scale, datasets: runner.run_table6(
            configs.TABLE6_PRETRAIN_METHODS, datasets or configs.TABLE6_DATASETS,
            scale=scale),
        lambda results, datasets: tables.format_table6(
            results, datasets or configs.TABLE6_DATASETS),
    ),
    "table7": (
        lambda scale, datasets: runner.run_table7(
            configs.TABLE7_STRATEGIES, datasets or configs.CLASSIFICATION_DATASETS,
            scale=scale),
        lambda results, datasets: tables.format_table7(
            results, datasets or configs.CLASSIFICATION_DATASETS),
    ),
    "table8": (
        lambda scale, datasets: runner.run_table8(
            configs.TABLE8_STRATEGIES, datasets or configs.CLASSIFICATION_DATASETS,
            scale=scale),
        lambda results, datasets: tables.format_table8(
            results, datasets or configs.CLASSIFICATION_DATASETS),
    ),
    "table9": (
        lambda scale, datasets: runner.run_table9(
            datasets or configs.TABLE6_DATASETS, scale=scale),
        lambda results, datasets: tables.format_table9(
            results, datasets or configs.TABLE6_DATASETS),
    ),
    "table10": (
        lambda scale, datasets: runner.run_table10(
            configs.TABLE10_BACKBONES, datasets or configs.TABLE6_DATASETS,
            scale=scale),
        lambda results, datasets: tables.format_table10(
            results, datasets or configs.TABLE6_DATASETS),
    ),
    "table11": (
        lambda scale, datasets: runner.run_table11(
            configs.TABLE11_STRATEGIES, datasets or configs.CLASSIFICATION_DATASETS,
            scale=scale),
        lambda results, datasets: tables.format_table11(
            results, datasets or configs.CLASSIFICATION_DATASETS),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate S2PGNN paper tables (VI-XI) at CPU scale.",
    )
    parser.add_argument(
        "target",
        choices=sorted(_TABLES) + ["space", "score", "serve", "route",
                                   "serve-forever", "lint",
                                   "backend-info"],
        help="paper table to regenerate, 'space' (Remark 3 numbers), "
             "'score' (many-spec serving fan-out), 'serve' "
             "(score + repeated-request throughput), 'route' "
             "(dynamic-batching single-request router demo), "
             "'serve-forever' (concurrent HTTP serving runtime), "
             "'lint' (static invariant analysis over src/repro) or "
             "'backend-info' (the implementation behind each kernel op "
             "and the compiled-kernel build status)",
    )
    parser.add_argument(
        "--tier", choices=["smoke", "bench"], default="bench",
        help="experiment scale: 'smoke' is a fast plumbing run",
    )
    parser.add_argument(
        "--datasets", nargs="*", default=None,
        help="restrict to a subset of datasets (default: the table's full set)",
    )
    serving = parser.add_argument_group("score/serve options")
    serving.add_argument(
        "--dataset", default="bbbp",
        help="downstream dataset for score/serve (default: bbbp)")
    serving.add_argument(
        "--size", type=int, default=120,
        help="dataset subsample size for score/serve")
    serving.add_argument(
        "--specs", type=int, default=6,
        help="number of random candidate specs to score beyond the derived one")
    serving.add_argument(
        "--batch-size", type=int, default=64,
        help="serving batch size")
    serving.add_argument(
        "--search-epochs", type=int, default=2,
        help="bi-level search epochs before serving")
    serving.add_argument(
        "--method", default="none",
        help="pre-training method from the zoo ('none' = fresh encoder; "
             "e.g. contextpred, graphcl)")
    serving.add_argument(
        "--layers", type=int, default=3, help="encoder depth for score/serve")
    serving.add_argument(
        "--emb-dim", type=int, default=32,
        help="encoder embedding width for score/serve")
    serving.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="serving execution dtype: float32 runs the inference memory "
             "plane (weights cast once at registration, float32 forwards); "
             "float64 is the bit-identical default")
    serving.add_argument("--seed", type=int, default=0)
    routing = parser.add_argument_group("route options")
    routing.add_argument(
        "--requests", type=int, default=64,
        help="number of single-graph requests to route")
    routing.add_argument(
        "--max-batch-size", type=int, default=16,
        help="router micro-batch size (flush-on-size threshold)")
    routing.add_argument(
        "--max-delay", type=int, default=4,
        help="router deadline in simulated-clock ticks (serve-forever: "
             "applies only while every worker is busy; an idle worker "
             "takes a request at once)")
    server = parser.add_argument_group("serve-forever options")
    server.add_argument(
        "--host", default="127.0.0.1", help="HTTP bind address")
    server.add_argument(
        "--port", type=int, default=8000,
        help="HTTP port (0 picks an ephemeral port)")
    server.add_argument(
        "--workers", type=int, default=2,
        help="micro-batch worker threads")
    server.add_argument(
        "--tick-interval", type=float, default=0.002,
        help="seconds per router clock tick (busy-worker deadline = "
             "max-delay ticks)")
    server.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds, then exit (default: forever)")
    server.add_argument(
        "--self-test", type=int, default=0, metavar="N",
        help="send N loopback requests through the HTTP client, print "
             "stats and exit (deployment smoke test)")
    lint = parser.add_argument_group("lint options")
    lint.add_argument(
        "--path", default=None,
        help="directory to lint (default: the installed repro package)")
    lint.add_argument(
        "--rules", nargs="*", default=None, metavar="REPxxx",
        help="run only these rule ids (default: all registered rules)")
    lint.add_argument(
        "--locks", action="store_true",
        help="print the machine-readable lock-hierarchy table and exit")
    return parser


def _run_lint(args) -> int:
    """``lint``: run the devtools invariant rules; exit 1 on findings."""
    import os

    from .devtools import render_lock_table, run_lint

    if args.locks:
        print(render_lock_table())
        return 0
    root = args.path or os.path.dirname(os.path.abspath(__file__))
    return run_lint(root, rule_ids=args.rules)


def _run_backend_info(args) -> int:
    """``backend-info``: the one implementation behind each registered
    op and the compiled-kernel JIT build status (compiler, cache,
    fallback reporting)."""
    from .nn.compiled import compiled_status
    from .nn.ops import OP_REGISTRY

    print("per-op implementations:")
    for op_name in OP_REGISTRY.ops():
        impl = OP_REGISTRY.get(op_name).impl
        print(f"  {op_name:<18} {impl.__module__}.{impl.__qualname__}")

    status = compiled_status()
    print("\ncompiled kernel status:")
    for key in sorted(status):
        print(f"  {key}: {status[key]}")
    return 0


def _serving_context(args):
    """Shared setup for ``score``/``serve``/``route``: dataset + short
    search + an :class:`~repro.serve.InferenceService` over one
    run-wide :class:`~repro.serve.BatchCacheRegistry`."""
    from .core.search import S2PGNNSearcher, SearchConfig
    from .gnn import GNNEncoder
    from .graph import load_dataset
    from .serve import BatchCacheRegistry, InferenceService

    def make_encoder():
        if args.method == "none":
            return GNNEncoder("gin", num_layers=args.layers, emb_dim=args.emb_dim,
                              dropout=0.0, seed=args.seed)
        from .pretrain import get_pretrained

        return get_pretrained(args.method, backbone="gin", num_layers=args.layers,
                              emb_dim=args.emb_dim, seed=args.seed)

    dataset = load_dataset(args.dataset, size=args.size)
    cache = BatchCacheRegistry()
    print(f"dataset: {dataset.info.name} ({len(dataset)} graphs, "
          f"metric={dataset.info.metric})")

    searcher = S2PGNNSearcher(
        make_encoder(), dataset,
        config=SearchConfig(epochs=args.search_epochs,
                            eval_batch_size=args.batch_size, seed=args.seed),
        batch_cache=cache,
    )
    result = searcher.search()
    print(f"search: {args.search_epochs} epoch(s) in {result.seconds:.2f}s, "
          f"derived {result.spec.describe()}")

    serving_dtype = getattr(args, "dtype", "float64")
    if serving_dtype != "float64":
        print(f"serving dtype: {serving_dtype} (memory plane on)")
    service = InferenceService(
        make_encoder, dataset.num_tasks, supernet=result.supernet,
        batch_cache=cache, batch_size=args.batch_size, seed=args.seed,
        policy=None if serving_dtype == "float64" else serving_dtype,
    )
    return dataset, searcher, result, service


def _run_serving(args, demo_requests: bool) -> int:
    """``score`` / ``serve``: search briefly, then serve spec scores.

    One :class:`~repro.serve.BatchCacheRegistry` backs the whole run —
    the searcher populates it, and the service then scores every
    candidate spec (and answers prediction requests) without ever
    re-collating a split.
    """
    import numpy as np

    dataset, searcher, result, service = _serving_context(args)
    _, valid_graphs, test_graphs = dataset.split()
    rng = np.random.default_rng((args.seed, 77))
    specs = [result.spec] + [
        searcher.space.random_spec(args.layers, rng) for _ in range(args.specs)
    ]
    start = time.perf_counter()
    scores = service.score_specs(specs, valid_graphs, metric=dataset.info.metric,
                                 batch_size=args.batch_size)
    elapsed = time.perf_counter() - start
    print(f"\nscored {len(scores)} specs on the validation split "
          f"in {elapsed:.3f}s ({len(scores) / elapsed:.1f} specs/s):")
    for entry in sorted(scores, key=lambda e: e.score, reverse=True):
        marker = " <- derived" if entry.spec == result.spec else ""
        print(f"  {entry.score:8.4f}  {entry.spec.describe()}{marker}")

    if demo_requests:
        best = max(scores, key=lambda e: e.score).spec
        service.warm(test_graphs)
        requests = 20
        start = time.perf_counter()
        for _ in range(requests):
            service.predict(test_graphs, best)
        elapsed = time.perf_counter() - start
        print(f"\nserved {requests} prediction requests over "
              f"{len(test_graphs)} graphs in {elapsed:.3f}s "
              f"({requests / elapsed:.1f} requests/s)")

    stats = service.stats()
    print(f"\ncache stats: {stats['batches']['hits']} batch-cache hits, "
          f"{stats['batches']['misses']} misses, "
          f"{stats['batches']['collations']} collations total")
    return 0


def _run_router(args) -> int:
    """``route``: stream single-graph requests through the dynamic-batching
    router and compare against the per-request batch-of-one path."""
    import numpy as np

    from .graph import DataLoader
    from .nn import inference
    from .serve import BatchingRouter

    dataset, searcher, result, service = _serving_context(args)
    _, _, test_graphs = dataset.split()

    rng = np.random.default_rng((args.seed, 78))
    specs = [result.spec, searcher.space.random_spec(args.layers, rng)]
    stream = [(test_graphs[i % len(test_graphs)], specs[i % len(specs)])
              for i in range(args.requests)]

    # Per-request batch-of-one: what a naive endpoint pays per call —
    # one collation (plans rebuilt from scratch) + one tiny forward each.
    models = {spec: service.model_for(spec) for spec in specs}
    start = time.perf_counter()
    singles = []
    with inference():
        for graph, spec in stream:
            for batch in DataLoader([graph], batch_size=1):
                singles.append(models[spec](batch).data.copy())
    single_s = time.perf_counter() - start

    router = BatchingRouter(service, max_batch_size=args.max_batch_size,
                            max_delay=args.max_delay)
    start = time.perf_counter()
    tickets = [router.submit(graph, spec) for graph, spec in stream]
    router.flush()
    routed_s = time.perf_counter() - start
    assert all(t.done for t in tickets)

    diff = max(float(np.abs(t.result() - s[0]).max())
               for t, s in zip(tickets, singles))
    stats = router.stats()
    print(f"\nrouted {args.requests} single-graph requests in {routed_s:.3f}s "
          f"({args.requests / routed_s:.1f} requests/s) across "
          f"{stats['batches']} micro-batches "
          f"(mean size {stats['mean_batch_size']:.1f}, "
          f"flushes {stats['flushes']})")
    print(f"batch-of-one path: {single_s:.3f}s "
          f"({args.requests / single_s:.1f} requests/s)")
    print(f"dynamic batching speedup: {single_s / routed_s:.1f}x "
          f"(max |logit diff| vs per-request forwards: {diff:.2e})")
    return 0


def _run_server(args) -> int:
    """``serve-forever``: the concurrent runtime behind the HTTP transport."""
    import time as _time

    import numpy as np

    from .serve import HTTPServingClient, HTTPServingTransport, InferenceServer

    dataset, searcher, result, service = _serving_context(args)
    _, _, test_graphs = dataset.split()
    rng = np.random.default_rng((args.seed, 79))
    specs = [result.spec, searcher.space.random_spec(args.layers, rng)]

    server = InferenceServer(
        service, num_workers=args.workers, max_batch_size=args.max_batch_size,
        max_delay=args.max_delay, tick_interval_s=args.tick_interval)
    with server, HTTPServingTransport(server, host=args.host,
                                      port=args.port) as transport:
        print(f"\nserving on {transport.url}  "
              f"({args.workers} workers, micro-batch {args.max_batch_size}, "
              "idle workers take requests at once; busy-worker deadline "
              f"~{args.max_delay * args.tick_interval * 1e3:.1f}ms)")
        print("endpoints: POST /predict /submit /result, GET /stats; e.g.\n"
              f"  curl -s {transport.url}/stats")

        if args.self_test:
            client = HTTPServingClient(transport.url)
            start = time.perf_counter()
            for i in range(args.self_test):
                graph = test_graphs[i % len(test_graphs)]
                logits = client.predict(graph, specs[i % len(specs)])
                assert logits.shape == (dataset.num_tasks,)
            elapsed = time.perf_counter() - start
            stats = client.stats()
            client.close()
            print(f"\nself-test: {args.self_test} HTTP predict round-trips "
                  f"in {elapsed:.3f}s ({args.self_test / elapsed:.1f} req/s)")
            print(f"router: {stats['server_router']['batches']} micro-batches, "
                  f"flushes {stats['server_router']['flushes']}; "
                  f"workers executed {stats['server']['executed_batches']}")
            return 0
        if args.duration is not None:
            _time.sleep(args.duration)
            print(f"\n--duration {args.duration}s elapsed; shutting down")
            return 0
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            print("\ninterrupted; shutting down")
            return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.target == "space":
        from .core import DEFAULT_SPACE

        for k in (3, 5):
            print(f"K={k}: |space| = {DEFAULT_SPACE.size(k):,}")
        print("paper Remark 3: 10,206 for the 5-layer GIN backbone")
        return 0

    if args.target in ("score", "serve"):
        return _run_serving(args, demo_requests=args.target == "serve")

    if args.target == "route":
        return _run_router(args)

    if args.target == "serve-forever":
        return _run_server(args)

    if args.target == "lint":
        return _run_lint(args)

    if args.target == "backend-info":
        return _run_backend_info(args)

    scale = configs.SMOKE_SCALE if args.tier == "smoke" else configs.BENCH_SCALE
    run, render = _TABLES[args.target]
    results = run(scale, args.datasets)
    print(render(results, args.datasets))
    return 0


if __name__ == "__main__":
    sys.exit(main())
