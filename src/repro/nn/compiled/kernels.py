"""ctypes wrappers: the C kernels behind the ``reduceat`` backend.

* :func:`segment_reduce` is the data kernel of the plan-backed segment
  ops: :mod:`repro.nn.segment` calls it from ``_reduce_sum_data`` /
  ``_reduce_max_data`` and runs its CSR matvec / vertical max when it
  returns None.
* :func:`_scatter_add_compiled` and :func:`_lstm_scan_compiled` are the
  registered ``reduceat`` implementations of ``scatter_add`` and
  ``lstm_scan``.

Every entry is **bit-identical** to the ``legacy`` reference (the C
loops accumulate in the reference order, see :mod:`.csrc`), so the
registered tolerances stay ``0.0``.  Each falls back per call, to the
numpy kernel or the legacy reference, whenever the library is
unavailable (no compiler, failed build) or the dtype/layout is one the C
side does not cover.
"""

from __future__ import annotations

import ctypes

import numpy as np

from . import build
from .. import rnn as _rnn
from .. import tensor as _tensor
from ..policy import active_dtype, active_workspace
from ..tensor import Tensor, as_tensor, is_grad_enabled

_SUFFIXES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}
_POINTERS = {np.dtype(np.float64): ctypes.POINTER(ctypes.c_double),
             np.dtype(np.float32): ctypes.POINTER(ctypes.c_float)}
_I64_P = ctypes.POINTER(ctypes.c_longlong)


def _kernel(name, dtype):
    """The loaded C symbol ``{name}_{f64|f32}``, or None (-> fallback)."""
    suffix = _SUFFIXES.get(np.dtype(dtype))
    if suffix is None:
        return None
    lib = build.load()
    if lib is None:
        return None
    return getattr(lib, f"{name}_{suffix}")


def _fp(array):
    return array.ctypes.data_as(_POINTERS[array.dtype])


def _ip(array):
    return array.ctypes.data_as(_I64_P)


def _plan_index(plan):
    """The plan's (order, indptr) as contiguous int64 for the C side."""
    order, indptr = plan.order, plan.indptr
    if order.dtype != np.int64 or not order.flags.c_contiguous:
        order = np.ascontiguousarray(order, dtype=np.int64)
    if indptr.dtype != np.int64 or not indptr.flags.c_contiguous:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    return order, indptr


def _flatten_rows(data, num_rows):
    """C-contiguous ``(num_rows, d)`` view/copy of ``data`` and ``d``."""
    d = 1
    for dim in data.shape[1:]:
        d *= int(dim)
    flat = data.reshape(num_rows, d)
    if not flat.flags.c_contiguous:
        flat = np.ascontiguousarray(flat)
    return flat, d


def _alloc_rows(rows, cols, dtype):
    """Output buffer, leased from the live workspace pool when one is
    active (the kernels overwrite every element, so ``empty`` is safe)."""
    pool = active_workspace()
    if pool is not None:
        return pool.empty((rows, cols), dtype)
    return np.empty((rows, cols), dtype=dtype)


def segment_reduce(name, data, plan):
    """Run the C ``segment_sum``/``segment_max`` loop over ``plan``.

    Returns None when the library is unavailable, the dtype has no C
    variant, or ``data`` does not cover the plan's rows; the caller then
    runs its numpy kernel.
    """
    kernel = _kernel(name, data.dtype)
    if kernel is None or data.shape[0] != plan.num_items:
        return None
    flat, d = _flatten_rows(data, plan.num_items)
    order, indptr = _plan_index(plan)
    out = _alloc_rows(plan.num_segments, d, data.dtype)
    kernel(_fp(flat), _ip(order), _ip(indptr), _fp(out),
           plan.num_segments, d)
    return out.reshape((plan.num_segments,) + data.shape[1:])


def _scatter_add_compiled(g, index, num_rows):
    """Sum rows of ``g`` into ``num_rows`` buckets selected by ``index``.

    The adjoint of a row gather: ``out[index[i]] += g[i]``, duplicate
    indices accumulating in appearance order — the C loop performs the
    same sequential accumulation as ``np.add.at``.  Falls back to the
    legacy ``np.add.at`` scatter when the library is unavailable and for
    layouts the C kernel does not cover: non-1-D indices, broadcasting
    payloads, or out-of-range/negative indices (which ``np.add.at``
    wraps/raises but raw C would corrupt memory on)."""
    g = np.asarray(g)
    if g.dtype.kind != "f":
        g = g.astype(active_dtype())
    index = np.asarray(index)
    num_rows = int(num_rows)
    kernel = _kernel("scatter_add", g.dtype)
    if (kernel is None or index.ndim != 1 or g.ndim < 1
            or g.shape[0] != index.shape[0]
            or (index.shape[0] > 0
                and (int(index.min()) < 0 or int(index.max()) >= num_rows))):
        return _tensor._legacy_scatter_add(g, index, num_rows)
    if index.dtype != np.int64 or not index.flags.c_contiguous:
        index = np.ascontiguousarray(index, dtype=np.int64)
    flat, d = _flatten_rows(g, index.shape[0])
    out = _alloc_rows(num_rows, d, g.dtype)
    kernel(_fp(flat), _ip(index), _fp(out), index.shape[0], num_rows, d)
    return out.reshape((num_rows,) + g.shape[1:])


def _state_data(state, batch, hidden, dtype):
    """Initial h/c as a contiguous ndarray in the scan dtype."""
    if state is None:
        return np.zeros((batch, hidden), dtype=dtype)
    data = state.data if isinstance(state, Tensor) else np.asarray(state)
    return np.ascontiguousarray(data, dtype=dtype)


def _lstm_scan_compiled(x, w_x, w_h, bias, h0=None, c0=None,
                        return_state=False):
    """Fused LSTM-step scan: per-step GEMMs and numpy transcendentals
    mirror the tape reference exactly (same association, same
    stridedness), with the pure-arithmetic gate finish and state update
    fused into C — compiled with ``-ffp-contract=off`` so no FMA can
    change the reference's rounding.  Grad-tracked inputs delegate to
    the tape reference (the fused scan is an inference-path kernel), as
    does every call the library or the operand layout cannot serve."""
    x = as_tensor(x)
    w_x = as_tensor(w_x)
    w_h = as_tensor(w_h)
    bias = as_tensor(bias)
    operands = (x, w_x, w_h, bias) + tuple(
        t for t in (h0, c0) if isinstance(t, Tensor))
    xd, wxd, whd, bd = x.data, w_x.data, w_h.data, bias.data
    combine = _kernel("lstm_combine", xd.dtype)
    if ((is_grad_enabled() and any(t.requires_grad for t in operands))
            or combine is None or xd.ndim != 3 or wxd.ndim != 2
            or whd.ndim != 2 or bd.ndim != 1 or xd.shape[0] == 0
            or not (xd.dtype == wxd.dtype == whd.dtype == bd.dtype)):
        return _rnn._lstm_scan_reference(x, w_x, w_h, bias, h0=h0, c0=c0,
                                         return_state=return_state)
    output = _kernel("lstm_output", xd.dtype)
    gates_kernel = _kernel("lstm_gates", xd.dtype)
    steps, batch = xd.shape[0], xd.shape[1]
    hidden = whd.shape[0]
    dtype = xd.dtype
    if not xd.flags.c_contiguous:
        xd = np.ascontiguousarray(xd)
    if not bd.flags.c_contiguous:
        bd = np.ascontiguousarray(bd)
    h = _state_data(h0, batch, hidden, dtype)
    # c is mutated in place through the buffer swap — never alias c0.
    c = np.array(_state_data(c0, batch, hidden, dtype))
    # The input projection has no step-to-step dependency: one stacked
    # GEMM over all steps (bitwise identical to the per-step products —
    # the contraction axis and its accumulation order are unchanged).
    xw = np.matmul(xd, wxd)
    out = np.empty((steps, batch, hidden), dtype=dtype)
    hw = np.empty((batch, 4 * hidden), dtype=dtype)
    ei = np.empty((batch, hidden), dtype=dtype)
    ef = np.empty((batch, hidden), dtype=dtype)
    eo = np.empty((batch, hidden), dtype=dtype)
    gg = np.empty((batch, hidden), dtype=dtype)
    c_next = np.empty((batch, hidden), dtype=dtype)
    tc = np.empty((batch, hidden), dtype=dtype)
    n = batch * hidden
    hw_p, bd_p = _fp(hw), _fp(bd)
    ei_p, ef_p, eo_p, gg_p = _fp(ei), _fp(ef), _fp(eo), _fp(gg)
    tc_p = _fp(tc)
    c_p, c_next_p = _fp(c), _fp(c_next)
    for t in range(steps):
        # One C pass assembles the reference association
        # ((x[t] @ w_x) + (h @ w_h)) + bias per gate slice, pre-negated
        # for the sigmoid gates (mirroring Tensor.sigmoid's
        # np.exp(-view)); numpy's exp/tanh then run on the contiguous
        # buffers — layout-invariant, so bitwise the reference values.
        np.matmul(h, whd, out=hw)
        gates_kernel(_fp(xw[t]), hw_p, bd_p,
                     ei_p, ef_p, gg_p, eo_p, batch, hidden)
        np.exp(ei, out=ei)
        np.exp(ef, out=ef)
        np.exp(eo, out=eo)
        np.tanh(gg, out=gg)
        combine(ei_p, ef_p, gg_p, c_p, c_next_p, n)
        np.tanh(c_next, out=tc)
        output(eo_p, tc_p, _fp(out[t]), n)
        h = out[t]
        c, c_next = c_next, c
        c_p, c_next_p = c_next_p, c_p
    result = Tensor(out)
    if return_state:
        return result, Tensor(h), Tensor(c)
    return result
