"""Inference memory plane: the execution dtype policy.

Everything in the stack historically computed in numpy's default
``float64`` — :class:`~repro.nn.tensor.Tensor` hard-coded the dtype, every
segment kernel allocated ``float64`` outputs, and collation inherited it.
That is the right default for *training* (bit-exact differential testing,
robust finite-difference gradcheck), but it doubles the memory bandwidth
of every hot CSR matvec at inference time for no accuracy benefit.  This
module makes the choice explicit:

* :class:`ExecutionPolicy` — the dtype every new tensor / kernel output is
  materialized in.  The active policy lives on a ``ContextVar`` alongside
  the existing ``no_grad`` state, so it is context-local
  and thread-isolated: a serving worker running float32 forwards cannot
  perturb a float64 training loop in another thread.
* :func:`use_dtype` — the entry point: ``with use_dtype("float32"): ...``
  runs a block in float32.  Policies are re-entrant context managers.
  Kernels allocate their outputs plainly (``np.empty`` / ``np.zeros``)
  in :func:`active_dtype`.
* :func:`cast_module` — the one-time cast of a frozen model's weights to
  the serving dtype.

Dtype contract per path
-----------------------
* **Train / eval (default policy)** — float64, bit-identical to the
  pre-policy behaviour.  The tier-2 differential suite pins this.
* **Serving (``use_dtype("float32")``)** — float32, toleranced parity
  against the float64 path (see ``tests/serve/test_memory_plane.py`` and
  the committed accuracy delta in ``benchmarks/BENCH_memory_plane.json``).
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExecutionPolicy",
    "active_policy",
    "active_dtype",
    "use_dtype",
    "cast_module",
]

#: dtypes a policy may select; everything else (float16 without kernels,
#: integer compute) would silently break the autograd contract.
_ALLOWED_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class ExecutionPolicy:
    """The dtype a block of work executes under.

    Parameters
    ----------
    dtype:
        ``"float64"`` (training default) or ``"float32"`` (serving).
        Every new :class:`~repro.nn.tensor.Tensor` and every segment-kernel
        output under the policy is materialized in this dtype.

    A policy instance is a re-entrant, context-local context manager —
    ``with policy: ...`` activates it for the current thread/context only.
    One instance may be entered concurrently from many threads (the
    serving worker pool shares a single policy): the nesting token stack
    is thread-local, so each thread pushes and pops only its own tokens.
    """

    dtype: str = "float64"

    def __post_init__(self):
        if self.dtype not in _ALLOWED_DTYPES:
            raise ValueError(
                f"unsupported policy dtype {self.dtype!r}; "
                f"known: {_ALLOWED_DTYPES}")
        # Cache the numpy dtype object: Tensor construction consults it on
        # every op, so the string -> np.dtype conversion must not recur.
        object.__setattr__(self, "np_dtype", np.dtype(self.dtype))
        object.__setattr__(self, "_tls", threading.local())

    def __enter__(self) -> "ExecutionPolicy":
        stack = getattr(self._tls, "tokens", None)
        if stack is None:
            stack = self._tls.tokens = []
        stack.append(_ACTIVE_POLICY.set(self))
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_POLICY.reset(self._tls.tokens.pop())
        return False


#: Context-local active policy.  Fresh threads start from the default
#: (float64) — they do not inherit the spawning thread's serving policy,
#: mirroring ``no_grad`` semantics.
_DEFAULT_POLICY = ExecutionPolicy()
_ACTIVE_POLICY: contextvars.ContextVar[ExecutionPolicy] = contextvars.ContextVar(
    "repro_execution_policy", default=_DEFAULT_POLICY)


def active_policy() -> ExecutionPolicy:
    """The policy tensor ops currently execute under (context-local)."""
    return _ACTIVE_POLICY.get()


def active_dtype() -> np.dtype:
    """The active policy's numpy dtype (``float64`` unless overridden)."""
    return _ACTIVE_POLICY.get().np_dtype


def use_dtype(dtype: str) -> ExecutionPolicy:
    """A policy selecting ``dtype``.

    ``with use_dtype("float32"): ...`` runs the block's tensor ops and
    kernel allocations in float32.
    """
    return ExecutionPolicy(dtype=str(dtype))


def cast_module(module, dtype) -> "module":
    """Cast every parameter and floating buffer of ``module`` in place.

    This is the one-time registration cast the serving
    :class:`~repro.serve.registry.ModelRegistry` applies to frozen models:
    after it, a forward under the matching :func:`use_dtype` policy runs
    entirely in ``dtype`` with no per-op casting copies.  Integer buffers
    (index tables) are left untouched.  Gradients are dropped — a cast
    model is a serving artifact, not a training state.
    """
    np_dtype = np.dtype(dtype)
    if np_dtype.name not in _ALLOWED_DTYPES:
        raise ValueError(f"unsupported cast dtype {dtype!r}")
    for _, param in module.named_parameters():
        if param.data.dtype != np_dtype:
            param.data = param.data.astype(np_dtype)
        param.grad = None
    for owner, full in module._iter_buffer_owners():
        leaf = full.rsplit(".", 1)[-1]
        value = owner._buffers[leaf]
        if value.dtype.kind == "f" and value.dtype != np_dtype:
            owner.set_buffer(leaf, value.astype(np_dtype))
    return module
