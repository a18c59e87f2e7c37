"""Shared pieces of the benchmark: cold set-up, statistics, box record.

The program under test is imported from the checkout's ``src`` tree, so
the benchmark always measures the code next to it.  Every run keeps its
pretrained-model zoo and compiled-kernel cache in fresh private
directories under ``.perfbench_tmp`` in the checkout, so set-up pretrains
and compiles cold and never depends on an earlier run.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: The paper's Table XI shape at CPU scale (``BENCH_SCALE``): a
#: contextpred-pretrained 5-layer GIN at embedding width 32.
ENCODER = dict(method="contextpred", backbone="gin", num_layers=5, emb_dim=32,
               corpus_size=160, epochs=2, batch_size=32, seed=0)
DATASET = "bbbp"


def require_program() -> None:
    """Exit with an error unless the program's sources sit next to us."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"program sources not found under {SRC}")


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


def fresh_dirs() -> str:
    """New private zoo + compiled-cache dirs; env points the program at them."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    base = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    os.environ["REPRO_ZOO_DIR"] = os.path.join(base, "zoo")
    os.environ["REPRO_COMPILED_CACHE"] = os.path.join(base, "compiled")
    return base


def remove_dirs(base: str) -> None:
    shutil.rmtree(base, ignore_errors=True)


def encoder_factory():
    from repro.pretrain import get_pretrained

    return get_pretrained(**ENCODER)


def cold_setup(dataset_size: int) -> dict:
    """One cold set-up: compile kernels, pretrain the encoder, load data.

    Each call starts from empty caches: fresh zoo and compiled-cache
    directories, a reset build manager, and an empty in-memory dataset
    cache.  Returns the timings of the three steps and the dataset.
    """
    from repro.graph import datasets
    from repro.nn.compiled import build

    base = fresh_dirs()
    timings = {}
    start = time.perf_counter()
    build.reset()
    build.load()  # the lazy first-use compile, paid here, not in the timed region
    timings["nn.compiled.build.s"] = time.perf_counter() - start
    mark = time.perf_counter()
    encoder_factory()
    timings["pretrain.get_pretrained.s"] = time.perf_counter() - mark
    with datasets._dataset_cache_lock:  # in-memory cache outlives a set-up
        datasets._DATASET_CACHE.clear()
    dataset = datasets.load_dataset(DATASET, size=dataset_size)
    return {"base": base, "timings": timings, "dataset": dataset}


def box() -> dict:
    """The machine and library facts a reader needs to compare numbers."""
    import numpy
    import scipy
    from repro.nn.compiled import compiled_status

    status = compiled_status()
    compiler = status.get("compiler")
    version = ""
    if compiler:
        try:
            probe = subprocess.run([compiler, "--version"], capture_output=True,
                                   text=True, timeout=30, check=False)
            version = (probe.stdout or "").splitlines()[0] if probe.stdout else ""
        except (OSError, subprocess.SubprocessError):
            version = "?"
    blas = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS") if os.environ.get(k)}
    blas_build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiler": f"{compiler} ({version})" if compiler else None,
        "compiled_state": status["state"],
        "blas": f"{blas_build.get('name')} {blas_build.get('version')}",
        "blas_threads_env": blas or "unset",
    }


def stop_children(timeout_s: float = 15.0) -> None:
    """End every process this run started and wait for each to end.

    Workloads stop their own processes; this catches whatever an error
    left behind.  It also stops ``multiprocessing``'s resource tracker,
    which starting a ``spawn`` process launches and which would
    otherwise outlive the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe, then waits for it to exit


def peak_rss_mb() -> float:
    """Peak resident set of this process (children such as the C
    compiler are not counted)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb() -> float:
    """Sum of the peak resident sets of this process's live child
    processes (the serving shard), read from ``/proc/<pid>/status``."""
    import multiprocessing

    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, ValueError):
            continue
    return total_kb / 1024.0


def process_cpu_s(pid: int) -> float:
    """CPU seconds all threads of process ``pid`` have run, from
    ``/proc/<pid>/task/*/schedstat`` (nanoseconds; stolen time excluded)."""
    total_ns = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat") as handle:
                total_ns += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue  # the thread ended between listing and reading
    return total_ns / 1e9


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole box, from ``/proc/stat``.

    Steal is time the host ran something else while this machine's
    virtual CPUs wanted to run; a run with much of it ran on a slower box.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return quantile(values, 0.5)


def phase_counts(attempted: int, succeeded: int, failed: int, timed_out: int) -> dict:
    return {"attempted": attempted, "succeeded": succeeded, "failed": failed,
            "timed_out": timed_out}
