"""JIT build manager: compile-at-first-use, disk-cached ctypes kernels.

The kernel library is built lazily the first time :func:`load` is called
(i.e. the first time a C-backed kernel actually runs), with the
discovered system compiler, and cached on disk keyed by
``sha256(source, compiler id, flags)`` so later processes just
``dlopen`` the existing shared object.  Every failure mode — no
compiler, compile error, unloadable object — degrades to ``load()``
returning ``None``, which the kernel wrappers treat as "run the numpy
kernel"; nothing is ever written to the build cache unless a compiler
was actually discovered.

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

from . import csrc

__all__ = ["cache_dir", "find_compiler", "load", "reset", "status"]

#: guards every mutation of the build state below (rank 58 in the serve
#: lock hierarchy — a leaf: nothing is acquired while holding it).
_build_lock = threading.Lock()

#: one-shot build state: ``attempted`` (build tried), ``compiler``
#: (discovered executable or None), ``lib`` (loaded CDLL or None),
#: ``build_failed``, ``disk_cache_hit``.
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


def _build(compiler: str):
    """Compile (or reuse from disk) and dlopen the kernel library.

    Returns ``(lib_or_None, disk_cache_hit)``.  Runs under
    ``_build_lock``; touches the cache directory only on a miss.
    """
    key = hashlib.sha256("\x00".join(
        [csrc.SOURCE, _compiler_id(compiler), " ".join(csrc.FLAGS)]
    ).encode()).hexdigest()[:20]
    directory = cache_dir()
    so_path = os.path.join(directory, f"repro_kernels_{key}.so")
    hit = os.path.exists(so_path)
    if not hit:
        os.makedirs(directory, exist_ok=True)
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
        tmp_so = c_path[:-2] + ".so"
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(csrc.SOURCE)
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
    for symbol, argtypes in csrc.SIGNATURES.items():
        kernel = getattr(lib, symbol)
        kernel.restype = None
        kernel.argtypes = list(argtypes)
    return lib, hit


def load():
    """The kernel library, building it on first call; None on any failure.

    Callers run their numpy kernels when this returns None — silently,
    per call, with bit-identical results.
    """
    if _STATE.get("attempted"):
        return _STATE.get("lib")
    with _build_lock:
        if not _STATE.get("attempted"):
            compiler = find_compiler()
            lib, hit = None, False
            if compiler is not None:
                try:
                    lib, hit = _build(compiler)
                except (OSError, ValueError, subprocess.SubprocessError,
                        AttributeError):
                    lib = None
            _STATE["compiler"] = compiler
            _STATE["lib"] = lib
            _STATE["disk_cache_hit"] = hit
            _STATE["build_failed"] = compiler is not None and lib is None
            _STATE["attempted"] = True
    return _STATE.get("lib")


def status() -> dict:
    """Snapshot of the build-manager state (never triggers a build)."""
    disabled = bool(os.environ.get("REPRO_COMPILED_DISABLE"))
    attempted = bool(_STATE.get("attempted"))
    compiler = _STATE.get("compiler") if attempted else find_compiler()
    lib = _STATE.get("lib")
    if disabled:
        state = "disabled"
    elif compiler is None or (attempted and lib is None):
        state = "unavailable"
    else:
        state = "available"
    return {
        "state": state,
        "compiler": compiler,
        "cache_dir": cache_dir(),
        "flags": " ".join(csrc.FLAGS),
        "attempted": attempted,
        "loaded": lib is not None,
        "build_failed": bool(_STATE.get("build_failed")),
        "disk_cache_hit": bool(_STATE.get("disk_cache_hit")),
    }


def reset() -> None:
    """Forget the loaded library and build outcome (tests/benchmarks)."""
    with _build_lock:
        _STATE.clear()
