"""C source templates + ctypes signatures for the compiled kernels.

One translation unit holds every kernel in float64 *and* float32
variants (``@T@``/``@S@`` template substitution), so the build manager
compiles exactly one shared object per (source, compiler, flags) key.

Exactness contract — these kernels are *bit-identical* to the numpy
kernels and the ``np.add.at`` references, not merely close:

* The segment kernels walk the plan's stable ``order``/``indptr`` layout
  and accumulate each segment **sequentially in appearance order** —
  the same association the ``np.add.at`` / ``np.add.reduceat``
  reference uses, so every partial sum rounds identically.
  ``gin_message`` does the same over per-edge messages ``h[src] + (t[a]
  + u[b])``, formed in the association of the composition it replaces.
* ``segment_max`` folds with ``(v > acc || isnan(v))`` which reproduces
  ``np.maximum``'s NaN-propagating semantics exactly.
* The LSTM kernels fuse only *pure arithmetic* (the ``1/(1+e)`` sigmoid
  finish and the gate/state combine); transcendentals (``exp``/``tanh``)
  stay in numpy on the Python side so their libm rounding matches the
  tape reference.  All literals are cast to ``@T@`` so the float32
  variant computes in true single precision (no double-rounding drift).
* ``FLAGS`` carries ``-ffp-contract=off``: FMA contraction of
  ``f*c + i*g`` would change the rounding and break bit-parity with the
  reference, which never fuses.
"""

from __future__ import annotations

import ctypes

__all__ = ["FLAGS", "SIGNATURES", "SOURCE"]

#: compile flags — part of the disk-cache key (see build.py).
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_PRELUDE = """\
#include <math.h>
#include <stddef.h>
"""

_TEMPLATE = """
/* Per-segment row sums over the plan's stable permutation: segment s owns
   order[indptr[s]:indptr[s+1]], accumulated sequentially in appearance
   order (bit-identical to np.add.reduceat over the sorted copy). */
void segment_sum_@S@(const @T@ *x, const long long *order,
                     const long long *indptr, @T@ *out,
                     ptrdiff_t num_segments, ptrdiff_t d) {
    for (ptrdiff_t s = 0; s < num_segments; s++) {
        @T@ *row = out + s * d;
        for (ptrdiff_t c = 0; c < d; c++) row[c] = (@T@)0.0;
        for (long long j = indptr[s]; j < indptr[s + 1]; j++) {
            const @T@ *src = x + order[j] * d;
            for (ptrdiff_t c = 0; c < d; c++) row[c] += src[c];
        }
    }
}

/* Per-segment row max, seeded with the segment's first row; empty
   segments yield zero rows like the reference.  The (v > acc || isnan(v))
   fold matches np.maximum's NaN propagation. */
void segment_max_@S@(const @T@ *x, const long long *order,
                     const long long *indptr, @T@ *out,
                     ptrdiff_t num_segments, ptrdiff_t d) {
    for (ptrdiff_t s = 0; s < num_segments; s++) {
        @T@ *row = out + s * d;
        long long lo = indptr[s], hi = indptr[s + 1];
        if (lo == hi) {
            for (ptrdiff_t c = 0; c < d; c++) row[c] = (@T@)0.0;
            continue;
        }
        const @T@ *first = x + order[lo] * d;
        for (ptrdiff_t c = 0; c < d; c++) row[c] = first[c];
        for (long long j = lo + 1; j < hi; j++) {
            const @T@ *src = x + order[j] * d;
            for (ptrdiff_t c = 0; c < d; c++) {
                @T@ v = src[c];
                if (v > row[c] || isnan(v)) row[c] = v;
            }
        }
    }
}

/* Row scatter-add in index order: out[index[i]] += g[rows[i]] (rows NULL
   reads g[i]) — the sequential accumulation np.add.at performs, without
   its per-element dispatch overhead or a gathered g[rows] copy. */
void scatter_add_@S@(const @T@ *g, const long long *rows,
                     const long long *index, @T@ *out,
                     ptrdiff_t n, ptrdiff_t num_rows, ptrdiff_t d) {
    for (ptrdiff_t r = 0; r < num_rows * d; r++) out[r] = (@T@)0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        @T@ *row = out + index[i] * d;
        const @T@ *src = g + (rows ? rows[i] : i) * d;
        for (ptrdiff_t c = 0; c < d; c++) row[c] += src[c];
    }
}

/* GIN message passing over the destination plan: node v sums, over its
   in-edges e in stable plan order, the message h[src[e]] + (t[a_e] +
   u[b_e]) with (a_e, b_e) = attr[e] — the association and order of the
   gather + embedding add + segment_sum composition it replaces. */
void gin_message_@S@(const @T@ *h, const @T@ *t, const @T@ *u,
                     const long long *src, const long long *attr,
                     const long long *order, const long long *indptr,
                     @T@ *out, ptrdiff_t num_nodes, ptrdiff_t d) {
    for (ptrdiff_t v = 0; v < num_nodes; v++) {
        @T@ *row = out + v * d;
        for (ptrdiff_t c = 0; c < d; c++) row[c] = (@T@)0.0;
        for (long long j = indptr[v]; j < indptr[v + 1]; j++) {
            long long e = order[j];
            const @T@ *hs = h + src[e] * d;
            const @T@ *ts = t + attr[2 * e] * d;
            const @T@ *us = u + attr[2 * e + 1] * d;
            for (ptrdiff_t c = 0; c < d; c++) row[c] += hs[c] + (ts[c] + us[c]);
        }
    }
}

/* LSTM gate assembly: per element, (xw + hw) + bias in the reference
   association, routed by packed slice ([i, f, g, o] along the width)
   into four contiguous per-gate buffers — negated for the sigmoid
   gates, raw for the cell gate.  numpy's exp/tanh run on the buffers
   afterwards: negation of a rounded sum is exact, and numpy's
   transcendentals are elementwise (layout-invariant), so the values
   match the reference's exp-of-negated-slice / tanh-of-slice bitwise. */
void lstm_gates_@S@(const @T@ *xw, const @T@ *hw, const @T@ *bias,
                    @T@ *ni, @T@ *nf, @T@ *g, @T@ *no,
                    ptrdiff_t rows, ptrdiff_t hidden) {
    ptrdiff_t width = 4 * hidden;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const @T@ *xr = xw + r * width;
        const @T@ *hr = hw + r * width;
        @T@ *ir = ni + r * hidden;
        @T@ *fr = nf + r * hidden;
        @T@ *gr = g + r * hidden;
        @T@ *orow = no + r * hidden;
        for (ptrdiff_t j = 0; j < hidden; j++) {
            ir[j] = -((xr[j] + hr[j]) + bias[j]);
            fr[j] = -((xr[hidden + j] + hr[hidden + j]) + bias[hidden + j]);
            gr[j] = (xr[2 * hidden + j] + hr[2 * hidden + j])
                    + bias[2 * hidden + j];
            orow[j] = -((xr[3 * hidden + j] + hr[3 * hidden + j])
                        + bias[3 * hidden + j]);
        }
    }
}

/* LSTM gate/state combine: ei/ef are exp(-pre_i)/exp(-pre_f) computed by
   numpy, g is the numpy tanh slice.  Pure arithmetic only:
   i = 1/(1+ei), f = 1/(1+ef), c_next = f*c_prev + i*g. */
void lstm_combine_@S@(const @T@ *ei, const @T@ *ef, const @T@ *g,
                      const @T@ *c_prev, @T@ *c_next, ptrdiff_t n) {
    for (ptrdiff_t k = 0; k < n; k++) {
        @T@ i = ((@T@)1.0) / (((@T@)1.0) + ei[k]);
        @T@ f = ((@T@)1.0) / (((@T@)1.0) + ef[k]);
        c_next[k] = f * c_prev[k] + i * g[k];
    }
}

/* LSTM output gate: h = (1/(1+eo)) * tanh(c_next), tanh from numpy. */
void lstm_output_@S@(const @T@ *eo, const @T@ *tc, @T@ *h, ptrdiff_t n) {
    for (ptrdiff_t k = 0; k < n; k++)
        h[k] = (((@T@)1.0) / (((@T@)1.0) + eo[k])) * tc[k];
}
"""


def _instantiate(ctype: str, suffix: str) -> str:
    return _TEMPLATE.replace("@T@", ctype).replace("@S@", suffix)


#: the full translation unit handed to the compiler.
SOURCE = (_PRELUDE
          + _instantiate("double", "f64")
          + _instantiate("float", "f32"))

_F64 = ctypes.POINTER(ctypes.c_double)
_F32 = ctypes.POINTER(ctypes.c_float)
_I64 = ctypes.POINTER(ctypes.c_longlong)
_SIZE = ctypes.c_ssize_t


def _signatures_for(ptr, suffix):
    return {
        f"segment_sum_{suffix}": (ptr, _I64, _I64, ptr, _SIZE, _SIZE),
        f"segment_max_{suffix}": (ptr, _I64, _I64, ptr, _SIZE, _SIZE),
        f"scatter_add_{suffix}": (ptr, _I64, _I64, ptr, _SIZE, _SIZE, _SIZE),
        f"gin_message_{suffix}": (ptr, ptr, ptr, _I64, _I64, _I64, _I64, ptr,
                                  _SIZE, _SIZE),
        f"lstm_gates_{suffix}": (ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                                 _SIZE, _SIZE),
        f"lstm_combine_{suffix}": (ptr, ptr, ptr, ptr, ptr, _SIZE),
        f"lstm_output_{suffix}": (ptr, ptr, ptr, _SIZE),
    }


#: exported symbol -> ctypes argtypes; restype is always None.
SIGNATURES = {**_signatures_for(_F64, "f64"), **_signatures_for(_F32, "f32")}
