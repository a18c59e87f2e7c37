"""Compiled C kernels: the JIT-built data kernels of the fast kernel ops.

:mod:`.csrc` holds the dtype-templated C source and ctypes signatures,
:mod:`.build` compiles it at first use with the discovered system
compiler and caches the shared object on disk, and :mod:`.kernels` wraps
the symbols.  The plan-backed segment ops in :mod:`repro.nn.segment`
(``gin_message`` included) and the ``scatter_add`` / ``lstm_scan`` ops
of :mod:`.kernels` call them wherever the library loaded, and fall back
per call to numpy otherwise.  Either way the results are bit-identical
to the ``np.add.at`` references in ``tests/oracles.py``.

Availability is observable through :func:`compiled_status` (also
surfaced by ``InferenceService.stats()`` and the ``backend-info`` CLI
target).
"""

from __future__ import annotations

from . import build

__all__ = ["build", "compiled_status"]


def compiled_status() -> dict:
    """Availability + build state of the compiled kernels.

    ``state`` is ``"disabled"`` (REPRO_COMPILED_DISABLE set),
    ``"unavailable"`` (no compiler discovered, or the build was attempted
    and failed) or ``"available"``; the remaining keys report the
    compiler, cache location and build/cache counters from
    :func:`.build.status`.
    """
    return build.status()
