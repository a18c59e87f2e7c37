"""ctypes wrappers: the C kernels behind the fast kernel ops.

* :func:`segment_reduce` is the data kernel of the plan-backed segment
  ops: :mod:`repro.nn.segment` calls it from ``_reduce_sum_data`` /
  ``_reduce_max_data`` and runs its CSR matvec / vertical max when it
  returns None.
* :func:`gin_message_forward` is the forward of the plan-backed
  ``gin_message`` op, and :func:`scatter_rows` its adjoint's three
  scatters (``out[index[i]] += g[rows[i]]``).
* :func:`scatter_add` and :func:`lstm_scan` are the registered
  ``scatter_add`` and ``lstm_scan`` ops; the scan's C forward is
  :func:`lstm_scan_forward`.

Every entry is **bit-identical** to its ``np.add.at`` / numpy reference
in ``tests/oracles.py`` (the C loops accumulate in the reference order,
see :mod:`.csrc`), so the registered tolerances stay ``0.0``.  Each
falls back per call to its numpy kernel whenever the library is
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

_SUFFIXES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}
_POINTERS = {np.dtype(np.float64): ctypes.POINTER(ctypes.c_double),
             np.dtype(np.float32): ctypes.POINTER(ctypes.c_float)}
_SCALARS = {np.dtype(np.float64): ctypes.c_double,
            np.dtype(np.float32): ctypes.c_float}
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


def _scratch_p(array):
    """``_fp`` for a writable C-contiguous array the caller allocated:
    ``byref`` over a ``from_buffer`` view, which keeps ``array`` alive
    and costs a fifth of ``data_as``."""
    return ctypes.byref(_SCALARS[array.dtype].from_buffer(array))


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


def scatter_add(g, index, num_rows):
    """Sum rows of ``g`` into ``num_rows`` buckets selected by ``index``.

    The adjoint of a row gather: ``out[index[i]] += g[i]``, duplicate
    indices accumulating in appearance order — the C loop performs the
    same sequential accumulation as ``np.add.at``."""
    return scatter_rows(g, None, index, num_rows)


def scatter_rows(g, rows, index, num_rows):
    """``out[index[i]] += g[rows[i]]`` over zeros (``rows=None`` reads
    ``g[i]``), accumulating in appearance order.

    One C loop serves the plain scatter and the gathered scatters of the
    ``gin_message`` adjoint, without materializing ``g[rows]``.  Without
    the library, a throwaway :class:`~repro.nn.segment.SegmentPlan` over
    ``index`` sums the rows with the plan's sequential CSR kernel — the
    same additions in the same order, 2-3x faster than ``np.add.at``
    even counting the plan build.  Layouts neither covers fall back to
    the ``np.add.at`` scatter: non-1-D indices, broadcasting
    payloads, dtypes other than float32/float64, or out-of-range/
    negative indices (which ``np.add.at`` wraps/raises but raw C would
    corrupt memory on)."""
    g = np.asarray(g)
    if g.dtype.kind != "f":
        g = g.astype(active_dtype())
    index = np.asarray(index)
    num_rows = int(num_rows)
    n = index.shape[0] if index.ndim else 0
    if (g.dtype not in _SUFFIXES or index.ndim != 1 or g.ndim < 1
            or not _in_range(index, num_rows)
            or (g.shape[0] != n if rows is None
                else np.ndim(rows) != 1 or len(rows) != n
                or not _in_range(rows, g.shape[0]))):
        return _tensor._add_at_scatter(
            g if rows is None else g[rows], index, num_rows)
    kernel = _kernel("scatter_add", g.dtype)
    if kernel is None:
        from ..segment import SegmentPlan, _reduce_sum_data

        return _reduce_sum_data(g if rows is None else g[rows],
                                SegmentPlan(index, num_rows))
    index = _as_index(index)
    flat, d = _flatten_rows(g, g.shape[0])
    out = _alloc_rows(num_rows, d, g.dtype)
    kernel(_fp(flat), None if rows is None else _ip(_as_index(rows)),
           _ip(index), _fp(out), n, num_rows, d)
    return out.reshape((num_rows,) + g.shape[1:])


def _in_range(index, size):
    """Whether every entry of the 1-D ``index`` lies in ``[0, size)``."""
    return index.shape[0] == 0 or (int(index.min()) >= 0
                                   and int(index.max()) < size)


def _as_index(index):
    """``index`` as contiguous int64 for the C side (no copy when it is)."""
    index = np.asarray(index)
    if index.dtype != np.int64 or not index.flags.c_contiguous:
        index = np.ascontiguousarray(index, dtype=np.int64)
    return index


def gin_message_forward(h, type_table, tag_table, src, attr, plan):
    """Run the C ``gin_message`` loop; None when the library is
    unavailable or the operands mix dtypes (the caller then runs the
    numpy composition).  Indices must already be range-checked: the C
    loop trusts them."""
    dtype = h.dtype
    kernel = _kernel("gin_message", dtype)
    if (kernel is None or h.ndim != 2
            or not (dtype == type_table.dtype == tag_table.dtype)):
        return None
    d = h.shape[1]
    h, type_table, tag_table = (np.ascontiguousarray(a)
                                for a in (h, type_table, tag_table))
    order, indptr = _plan_index(plan)
    out = _alloc_rows(plan.num_segments, d, dtype)
    kernel(_fp(h), _fp(type_table), _fp(tag_table), _ip(_as_index(src)),
           _ip(_as_index(attr)), _ip(order), _ip(indptr), _fp(out),
           plan.num_segments, d)
    return out


def lstm_scan_forward(x, w_x, w_h, bias, h0, c0, keep=True):
    """Fused LSTM forward: :func:`repro.nn.rnn.lstm_scan_numpy`'s
    ``(seq, saved)``, or None when the library, the dtypes or the layout
    cannot serve the call (the caller then runs the numpy forward).

    Per-step GEMMs and numpy transcendentals mirror the numpy forward
    exactly (same association, same stridedness); the pure-arithmetic
    gate finish and state update are fused into C — compiled with
    ``-ffp-contract=off`` so no FMA can change the rounding."""
    combine = _kernel("lstm_combine", x.dtype)
    if (combine is None or x.ndim != 3 or w_x.ndim != 2
            or w_h.ndim != 2 or bias.ndim != 1
            or not (x.dtype == w_x.dtype == w_h.dtype == bias.dtype
                    == h0.dtype == c0.dtype)):
        return None
    output = _kernel("lstm_output", x.dtype)
    gates_kernel = _kernel("lstm_gates", x.dtype)
    steps, batch = x.shape[0], x.shape[1]
    hidden = w_h.shape[0]
    dtype = x.dtype
    # The input projection has no step-to-step dependency: one stacked
    # GEMM over all steps (bitwise identical to the per-step products —
    # the contraction axis and its accumulation order are unchanged).
    xw = np.matmul(np.ascontiguousarray(x), w_x)
    seq = np.empty((steps + 1, batch, hidden), dtype=dtype)
    hw = np.empty((batch, 4 * hidden), dtype=dtype)
    n = batch * hidden
    hw_p, bias_p = _scratch_p(hw), _fp(np.ascontiguousarray(bias))

    def step_buffers():
        """e_i, e_f, g, e_o, c, tanh(c) for one step, with pointers.
        Separate (batch, hidden) arrays: small enough for the allocator
        to recycle warm memory, where stacked per-gate buffers would
        fault in fresh pages on every call."""
        bufs = [np.empty((batch, hidden), dtype=dtype) for _ in range(6)]
        return bufs, [_scratch_p(b) for b in bufs]

    # Without gradients one set of buffers serves every step, plus a
    # spare cell buffer to swap with (c_prev and c_next must differ).
    reused = None if keep else step_buffers()
    if not keep and steps > 1:
        spare_c = np.empty((batch, hidden), dtype=dtype)
        spare_c_p = _scratch_p(spare_c)
    saved = ([], [], [], [], [c0], []) if keep else None
    c, c_p = c0, _fp(np.ascontiguousarray(c0))
    h = np.ascontiguousarray(h0)
    for t in range(steps):
        bufs, ptrs = step_buffers() if keep else reused
        e_i, e_f, g, e_o, c, t_c = bufs
        e_i_p, e_f_p, g_p, e_o_p, c_next_p, t_c_p = ptrs
        # One C pass assembles the reference association
        # ((x[t] @ w_x) + (h @ w_h)) + bias per gate slice, pre-negated
        # for the sigmoid gates (mirroring the np.exp(-pre) of the numpy
        # sigmoid); numpy's exp/tanh then run on the contiguous buffers —
        # layout-invariant, so bitwise the numpy forward's values.
        np.matmul(h, w_h, out=hw)
        gates_kernel(_scratch_p(xw[t]), hw_p, bias_p, e_i_p, e_f_p, g_p,
                     e_o_p, batch, hidden)
        np.exp(e_i, out=e_i)
        np.exp(e_f, out=e_f)
        np.exp(e_o, out=e_o)
        np.tanh(g, out=g)
        combine(e_i_p, e_f_p, g_p, c_p, c_next_p, n)
        np.tanh(c, out=t_c)
        output(e_o_p, t_c_p, _scratch_p(seq[t]), n)
        if keep:
            for buffers, buf in zip(saved, bufs):
                buffers.append(buf)
        elif steps > 1:
            bufs[4], spare_c = spare_c, bufs[4]
            ptrs[4], spare_c_p = spare_c_p, ptrs[4]
        c_p = c_next_p
        h = seq[t]
    seq[steps] = c
    return seq, saved


def _scan_forward(x, w_x, w_h, bias, h0, c0, keep=True):
    """The fused C forward, else the numpy one (same buffers, same bits)."""
    fused = lstm_scan_forward(x, w_x, w_h, bias, h0, c0, keep)
    if fused is not None:
        return fused
    return _rnn.lstm_scan_numpy(x, w_x, w_h, bias, h0, c0, keep)


def lstm_scan(x, w_x, w_h, bias, h0=None, c0=None, return_state=False):
    """The ``lstm_scan`` op: the one-node scan of
    :func:`repro.nn.rnn.lstm_scan_node` over the fused C forward, with or
    without gradients; its adjoint is the shared numpy BPTT."""
    return _rnn.lstm_scan_node(x, w_x, w_h, bias, h0, c0, return_state,
                               forward=_scan_forward)
