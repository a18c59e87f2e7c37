"""JIT build manager: compile-at-first-use, disk-cached ctypes kernels.

Each dtype's kernel library (see :mod:`.csrc`) is built lazily the first
time :func:`load` is asked for it — i.e. the first time a C-backed
kernel runs in that dtype — with the discovered system compiler, and
cached on disk keyed by ``sha256(that dtype's source, compiler id,
flags)`` so later processes just ``dlopen`` the existing shared object.
A float64-only process therefore never compiles the float32 library.
Every failure mode — no compiler, compile error, unloadable object —
degrades to ``load()`` returning ``None``, which the kernel wrappers
treat as "run the numpy kernel"; nothing is ever written to the build
cache unless a compiler was actually discovered.

Env knobs (read per call, so tests can monkeypatch the environment
without re-importing):

``REPRO_COMPILED_DISABLE``
    any non-empty value disables compiler discovery entirely.
``REPRO_CC``
    compiler executable (name resolved on PATH, or an absolute path).
``REPRO_COMPILED_CACHE``
    build-cache directory (default ``~/.cache/repro/compiled``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import NamedTuple

import numpy as np

from . import csrc

__all__ = ["cache_dir", "find_compiler", "load", "reset", "status"]

#: guards every mutation of the build state below (rank 58 in the serve
#: lock hierarchy — a leaf: nothing is acquired while holding it).
_build_lock = threading.Lock()


class _Attempt(NamedTuple):
    """One dtype's build outcome: the discovered compiler (or None), the
    loaded library (or None) and ``outcome`` — ``"built"``, ``"disk
    hit"``, ``"failed"`` or ``"unavailable"`` (no compiler)."""

    compiler: str | None
    lib: ctypes.CDLL | None
    outcome: str


#: np.dtype -> its :class:`_Attempt`, published whole once the attempt
#: is over, so a lookup needs no lock.
_STATE: dict = {}


def find_compiler():
    """Path of the system C compiler, or None when unavailable/disabled."""
    if os.environ.get("REPRO_COMPILED_DISABLE"):
        return None
    override = os.environ.get("REPRO_CC")
    if override:
        if os.path.sep in override:
            return override if os.path.exists(override) else None
        return shutil.which(override)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> str:
    """Directory holding the compiled shared objects."""
    override = os.environ.get("REPRO_COMPILED_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "compiled")


def _compiler_id(compiler: str) -> str:
    """Version-qualified compiler identity for the cache key."""
    try:
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True, timeout=60, check=False)
        first = (probe.stdout or probe.stderr or "").splitlines()
        return f"{compiler} {first[0] if first else ''}"
    except (OSError, subprocess.SubprocessError):
        return compiler


def _build(compiler: str, name: str):
    """Compile (or reuse from disk) and dlopen dtype ``name``'s library.

    Returns ``(lib_or_None, disk_cache_hit)``.  Runs under
    ``_build_lock``; touches the cache directory only on a miss.
    """
    source = csrc.SOURCES[name]
    key = hashlib.sha256("\x00".join(
        [source, _compiler_id(compiler), " ".join(csrc.FLAGS)]
    ).encode()).hexdigest()[:20]
    directory = cache_dir()
    so_path = os.path.join(directory, f"repro_kernels_{name}_{key}.so")
    hit = os.path.exists(so_path)
    if not hit:
        os.makedirs(directory, exist_ok=True)
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
        tmp_so = c_path[:-2] + ".so"
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(source)
            result = subprocess.run(
                [compiler, *csrc.FLAGS, c_path, "-o", tmp_so],
                capture_output=True, timeout=600, check=False)
            if result.returncode != 0:
                return None, hit
            # atomic publish: concurrent processes racing on the same key
            # all land on a byte-equivalent object.
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (c_path, tmp_so):
                try:
                    os.remove(leftover)
                except OSError:
                    pass
    lib = ctypes.CDLL(so_path)
    for symbol, argtypes in csrc.SIGNATURES[name].items():
        kernel = getattr(lib, symbol)
        kernel.restype = None
        kernel.argtypes = list(argtypes)
    return lib, hit


def _load_once(dtype) -> _Attempt:
    """Build (once) the library of ``dtype``, a normalized np.dtype."""
    with _build_lock:
        attempt = _STATE.get(dtype)
        if attempt is None:
            compiler = find_compiler()
            lib, outcome = None, "unavailable"
            if compiler is not None:
                try:
                    lib, hit = _build(compiler, dtype.name)
                except (OSError, ValueError, subprocess.SubprocessError,
                        AttributeError):
                    lib, hit = None, False
                outcome = ("failed" if lib is None
                           else "disk hit" if hit else "built")
            attempt = _Attempt(compiler, lib, outcome)
            _STATE[dtype] = attempt
    return attempt


def load(dtype=np.float64):
    """The kernel library of ``dtype`` (float64 or float32), building it
    on the first call for that dtype; None on any failure or for a dtype
    without C kernels.

    Callers run their numpy kernels when this returns None — silently,
    per call, with bit-identical results.  Once a dtype was attempted,
    the lookup takes no lock.
    """
    attempt = _STATE.get(dtype)
    if attempt is None:
        dtype = np.dtype(dtype)
        if dtype.name not in csrc.SOURCES:
            return None
        attempt = _STATE.get(dtype) or _load_once(dtype)
    return attempt.lib


def status() -> dict:
    """Snapshot of the build-manager state (never triggers a build).

    ``libraries`` maps each dtype to its library's outcome (``"not
    attempted"``, ``"built"``, ``"disk hit"``, ``"failed"`` or
    ``"unavailable"``); ``attempted``, ``loaded``, ``build_failed`` and
    ``disk_cache_hit`` hold when they hold for any dtype.
    """
    disabled = bool(os.environ.get("REPRO_COMPILED_DISABLE"))
    attempts = {dtype.name: attempt for dtype, attempt in list(_STATE.items())}
    compiler = (next(iter(attempts.values())).compiler if attempts
                else find_compiler())
    if disabled:
        state = "disabled"
    elif compiler is None or any(a.lib is None for a in attempts.values()):
        state = "unavailable"
    else:
        state = "available"
    outcomes = {name: attempts[name].outcome if name in attempts
                else "not attempted" for name in csrc.SOURCES}
    return {
        "state": state,
        "compiler": compiler,
        "cache_dir": cache_dir(),
        "flags": " ".join(csrc.FLAGS),
        "attempted": bool(attempts),
        "loaded": any(a.lib is not None for a in attempts.values()),
        "build_failed": "failed" in outcomes.values(),
        "disk_cache_hit": "disk hit" in outcomes.values(),
        "libraries": outcomes,
    }


def reset() -> None:
    """Forget every dtype's library and build outcome (tests/benchmarks)."""
    with _build_lock:
        _STATE.clear()
