"""Benchmark configuration.

Each benchmark regenerates one of the paper's evaluation tables at CPU
scale and asserts the paper's *shape* (who wins, sign of gaps) rather than
absolute numbers.  Set ``REPRO_BENCH_TIER=smoke`` to run a fast sanity tier
(used in CI-style runs); the default ``bench`` tier regenerates the full
row/column structure of every table.
"""

import json
import os
import sys

import pytest

from repro.experiments.configs import BENCH_SCALE, SMOKE_SCALE, Scale


def bench_scale() -> Scale:
    tier = os.environ.get("REPRO_BENCH_TIER", "bench")
    return SMOKE_SCALE if tier == "smoke" else BENCH_SCALE


@pytest.fixture(scope="session")
def scale() -> Scale:
    return bench_scale()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


# ----------------------------------------------------------------------
# snapshot benches: BENCH_<name>.json next to this file
# ----------------------------------------------------------------------
def result_path(name: str) -> str:
    """Path of the committed snapshot ``BENCH_<name>.json``."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        f"BENCH_{name}.json")


def smoke_mode() -> bool:
    """The sanity config: ``REPRO_BENCH_TIER=smoke`` or ``--smoke``."""
    return (os.environ.get("REPRO_BENCH_TIER") == "smoke"
            or "--smoke" in sys.argv)


def run_contract(run, *args, **kwargs) -> dict:
    """A pytest contract's measurement, printed as JSON (the test skips
    under ``REPRO_BENCH_SKIP=1``)."""
    if os.environ.get("REPRO_BENCH_SKIP") == "1":
        pytest.skip("REPRO_BENCH_SKIP=1")
    results = run(*args, **kwargs)
    print(json.dumps(results, indent=2))
    return results


def write_snapshot(results: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(results, f, indent=2)


def write_if_requested(results: dict, path: str) -> None:
    """After a contract's asserts pass: write when ``REPRO_BENCH_WRITE=1``."""
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        write_snapshot(results, path)


def snapshot_main(run, path: str) -> None:
    """Script entry point: print ``run()`` and write it to ``path``, except
    in smoke mode."""
    results = run()
    print(json.dumps(results, indent=2))
    if smoke_mode():
        print("\nsmoke mode: snapshot not written")
    else:
        write_snapshot(results, path)
        print(f"\nwrote {path}")
