"""Segment-reduction kernel layer: ``SegmentPlan`` + plan-aware autograd ops.

Every hot path of the reproduction — neighborhood aggregation in all conv
candidates, ``segment_softmax`` (GAT, Set2Set), and every graph readout —
bottoms out in segment reductions.  ``np.add.at`` / ``np.maximum.at``
are an order of magnitude slower than sequential loops over sorted rows,
so this module provides plan-backed ops instead:

* :class:`SegmentPlan` — a precomputed, reusable reduction plan for one
  index array: stable sort permutation, per-segment counts / start offsets
  / ``indptr``, the non-empty segment list, and the count reciprocals used
  by :func:`segment_mean` (computed once, not per call).
* plan-aware :func:`segment_sum` / :func:`segment_mean` /
  :func:`segment_max` / :func:`segment_softmax` / :func:`gather_segments`
  — autograd ops over the plan's sorted layout whose gradients stay pure
  gathers/scatters through the plan.  Each accepts either a
  :class:`SegmentPlan` or a plain index array (a throwaway plan is built on
  the fly), so standalone callers keep the historical
  ``op(x, segment_ids, num_segments)`` signature.
* ``gin_message`` — GIN's gather + bond embeddings + add + sum over the
  destination plan as one autograd node (C forward where the kernel
  library built).

Kernel execution
----------------
The plan's sorted-run structure (``indptr`` / ``starts``) is exactly the
row-pointer layout of a CSR selection matrix.  The sum/mean kernels run
the JIT-built C ``segment_sum`` loop (:mod:`repro.nn.compiled`) over the
plan's ``order``/``indptr`` when the kernel library is loaded and the
dtype is float32/float64, and a cached ``scipy.sparse`` CSR matvec
otherwise.  Both add each segment's rows sequentially in appearance
order — the stable sort preserves it — so they are bit-identical to the
``np.add.at`` reference.  ``segment_max`` runs the C ``segment_max``
loop, else a rank-sliced "vertical" max across segments (one vectorized
pass per within-segment rank, indices precomputed in the plan),
switching to ``np.maximum.reduceat`` when segments are long and few.

Plan contract
-------------
A plan is a pure function of ``(segment_ids, num_segments)`` and is valid
for any tensor whose leading dimension equals ``plan.num_items``:

* **Reuse** — a plan may be reused across calls, ops, epochs and models, as
  long as the index array it was built from is unchanged.  ``Batch`` caches
  an edge-destination plan and a node->graph plan precisely because its
  arrays are frozen after collation; ``DataLoader(cache=True)`` therefore
  amortizes plan construction across all epochs and across the
  searcher/evolution/finetune phases of a run.
* **Invalidation** — there is none in place: plans hold copies of nothing
  and snapshot views of nothing, but they do capture the *values* of the
  index array at build time.  If you mutate ``segment_ids``,
  ``edge_index`` or the batch vector afterwards, build a new plan (for
  ``Batch``, build a new batch; batches are treated as immutable).
* **Determinism** — the sort is stable, so rows of the same segment are
  reduced in their original relative order; plan-aware and plain-index
  call paths produce bit-identical outputs and gradients.

Each public op here is registered once in :data:`~repro.nn.ops.OP_REGISTRY`;
the ``np.add.at`` references the tests compare them against live in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sparse

from .compiled import kernels as _kernels
from .policy import active_workspace, workspace_zeros
from .tensor import Tensor, as_tensor

#: scipy's raw CSR mat-multivec kernel (what ``csr @ dense`` calls after
#: allocating its result).  Resolved defensively — it is a private module —
#: so the workspace fast path can accumulate A@X straight into a leased,
#: zeroed buffer; absent, workspace runs still work, they just let scipy
#: allocate the matvec result.
try:
    from scipy.sparse import _sparsetools
    _csr_matvecs = getattr(_sparsetools, "csr_matvecs", None)
except ImportError:  # pragma: no cover - layout varies across scipy
    _csr_matvecs = None

__all__ = [
    "SegmentPlan",
    "as_plan",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "gather_segments",
    "gin_message",
]

#: Above this within-segment rank count the vertical max (one pass per
#: rank) degenerates; long, few segments are ``reduceat``'s good regime.
_VERTICAL_MAX_RANK_LIMIT = 64


class SegmentPlan:
    """Precomputed reduction plan for one ``(segment_ids, num_segments)``.

    Attributes
    ----------
    segment_ids:
        The original ``(num_items,)`` int64 index array.
    order:
        Stable argsort of ``segment_ids`` — rows of the same segment keep
        their original relative order, so the sum kernels add them in the
        same sequence ``np.add.at`` would.
    counts / offsets / indptr:
        Per-segment row count, start offset in the sorted layout
        (``offsets[s] = sum(counts[:s])``, defined for empty segments too),
        and the CSR row-pointer ``indptr = [0, cumsum(counts)]``.
    segments / starts:
        Non-empty segment ids and their row starts — the ``indices``
        argument handed to ``np.maximum.reduceat`` (strictly increasing).
    inv_counts:
        ``1 / max(counts, 1)`` — the :func:`segment_mean` reciprocals,
        computed once here instead of per call (float64;
        :meth:`inv_counts_for` serves other policy dtypes).
    full:
        True when every segment is non-empty (the common case for
        node->graph plans), enabling a copy-free ``np.maximum.reduceat``
        result.

    The CSR selection matrix and the vertical-max rank slices are built
    lazily on first use and cached for the plan's lifetime; the CSR matrix
    and mean reciprocals are cached *per execution dtype*, so a plan shared
    between a float64 eval path and a float32 serving path serves both
    without per-call casts.
    """

    __slots__ = ("segment_ids", "num_segments", "num_items", "order",
                 "counts", "offsets", "indptr", "segments", "starts",
                 "inv_counts", "full", "_csr_by_dtype", "_inv_by_dtype",
                 "_rank_slices")

    def __init__(self, segment_ids: np.ndarray, num_segments: int):
        ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
        num_segments = int(num_segments)
        if num_segments < 0:
            raise ValueError("num_segments must be non-negative")
        if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
            raise ValueError(
                f"segment ids out of range [0, {num_segments}): "
                f"({ids.min()}, {ids.max()})"
            )
        self.segment_ids = ids
        self.num_segments = num_segments
        self.num_items = int(ids.size)
        self.order = np.argsort(ids, kind="stable")
        counts = np.bincount(ids, minlength=num_segments)
        self.counts = counts
        cumulative = np.cumsum(counts)
        self.offsets = cumulative - counts
        self.indptr = np.concatenate([[0], cumulative])
        self.segments = np.flatnonzero(counts)
        self.starts = self.offsets[self.segments]
        self.inv_counts = 1.0 / np.maximum(counts, 1.0)
        self.full = self.segments.size == num_segments
        self._csr_by_dtype: dict = {}
        self._inv_by_dtype: dict = {}
        self._rank_slices = None

    def csr(self, dtype=np.float64):
        """Cached ``(num_segments, num_items)`` CSR selection matrix.

        Row ``s`` selects the rows of segment ``s`` in their original
        appearance order, so ``csr @ x`` accumulates exactly like
        ``np.add.at``.  One matrix is cached per execution dtype (its
        ``data`` array of ones must match the operand dtype or scipy
        upcasts the whole matvec).
        """
        key = np.dtype(dtype).str
        csr = self._csr_by_dtype.get(key)
        if csr is None:
            # Benign race under concurrent first use: both threads build
            # the same matrix; last write wins, both results are valid.
            csr = _sparse.csr_matrix(
                (np.ones(self.num_items, dtype=dtype), self.order,
                 self.indptr),
                shape=(self.num_segments, self.num_items),
            )
            self._csr_by_dtype[key] = csr
        return csr

    def inv_counts_for(self, dtype) -> np.ndarray:
        """:attr:`inv_counts` in the requested execution dtype (cached)."""
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            return self.inv_counts
        cached = self._inv_by_dtype.get(dtype.str)
        if cached is None:
            cached = self.inv_counts.astype(dtype)
            self._inv_by_dtype[dtype.str] = cached
        return cached

    def rank_slices(self) -> list:
        """Cached vertical-max passes: ``(segment ids, sorted-row positions)``
        of every segment's rank-r row, for r = 1 .. max_count-1."""
        if self._rank_slices is None:
            max_count = int(self.counts.max()) if self.counts.size else 0
            slices = []
            for rank in range(1, max_count):
                sel = np.flatnonzero(self.counts > rank)
                slices.append((sel, self.offsets[sel] + rank))
            self._rank_slices = slices
        return self._rank_slices

    def __repr__(self) -> str:
        return (f"SegmentPlan(num_items={self.num_items}, "
                f"num_segments={self.num_segments}, full={self.full})")


def as_plan(index, num_segments: int | None = None) -> SegmentPlan:
    """Coerce ``index`` (plan or index array) to a :class:`SegmentPlan`."""
    if isinstance(index, SegmentPlan):
        if num_segments is not None and int(num_segments) != index.num_segments:
            raise ValueError(
                f"plan covers {index.num_segments} segments, caller asked for {num_segments}"
            )
        return index
    if num_segments is None:
        raise ValueError("num_segments is required when passing a plain index array")
    return SegmentPlan(index, num_segments)


def _reduce_sum_data(x_data: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    """Per-segment sum of ``x_data`` rows (C loop, else CSR matvec).

    Both kernels add each segment's rows one at a time in original
    appearance order, starting from zero — the same sequence of roundings
    as the ``np.add.at`` reference, so the results are bit-identical.
    (``np.add.reduceat`` is not: it does not always add the rows in
    sequence — up to 2e-14 apart at 872x32 rows into 5 segments — so it
    is no fallback here.)  The output dtype follows
    ``x_data`` (the active policy's dtype on the forward path).  When the
    active policy carries a workspace pool, the output is leased from it;
    the CSR path then accumulates through scipy's raw ``csr_matvecs``
    kernel into the leased, zeroed buffer — same kernel, same
    accumulation order, no allocation at steady state.
    """
    dtype = x_data.dtype
    tail = x_data.shape[1:]
    if plan.starts.size == 0:
        return workspace_zeros((plan.num_segments,) + tail, dtype)
    out = _kernels.segment_reduce("segment_sum", x_data, plan)
    if out is not None:
        return out
    csr = plan.csr(dtype)
    pool = active_workspace()
    if pool is not None and _csr_matvecs is not None:
        flat = x_data.reshape(plan.num_items, -1)
        if not flat.flags.c_contiguous:
            flat = np.ascontiguousarray(flat)
        n_vecs = flat.shape[1]
        out = pool.zeros((plan.num_segments, n_vecs), dtype)
        _csr_matvecs(plan.num_segments, plan.num_items, n_vecs,
                     csr.indptr, csr.indices, csr.data,
                     flat.ravel(), out.ravel())
        return out.reshape((plan.num_segments,) + tail)
    if x_data.ndim <= 2:
        return csr @ x_data
    flat = csr @ x_data.reshape(plan.num_items, -1)
    return flat.reshape((plan.num_segments,) + tail)


def _reduce_max_data(x_data: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    """Per-segment max of ``x_data`` rows (empty segments yield zeros).

    The C loop when the kernel library is loaded, else a vertical max or
    ``np.maximum.reduceat`` (max is exact, so every path agrees bit for
    bit).  Output dtype follows ``x_data``; under a workspace policy the
    output (and the vertical max's sorted-row staging buffer) is leased
    from the pool.
    """
    dtype = x_data.dtype
    if plan.starts.size == 0:
        return workspace_zeros((plan.num_segments,) + x_data.shape[1:], dtype)
    out = _kernels.segment_reduce("segment_max", x_data, plan)
    if out is not None:
        return out
    out = workspace_zeros((plan.num_segments,) + x_data.shape[1:], dtype)
    max_count = int(plan.counts.max())
    if max_count <= _VERTICAL_MAX_RANK_LIMIT:
        # Vertical max: seed with each segment's rank-0 row, then fold in
        # one vectorized pass per remaining within-segment rank.
        pool = active_workspace()
        if pool is not None:
            # mode="clip" skips numpy's bounds-check temporary; plan.order
            # is a permutation, so clipping never changes an index.
            xs = np.take(x_data, plan.order, axis=0, mode="clip",
                         out=pool.empty(x_data.shape, dtype))
        else:
            xs = x_data[plan.order]
        out[plan.segments] = xs[plan.starts]
        for sel, pos in plan.rank_slices():
            out[sel] = np.maximum(out[sel], xs[pos])
        return out
    maxs = np.maximum.reduceat(x_data[plan.order], plan.starts, axis=0)
    if plan.full:
        return maxs
    out[plan.segments] = maxs
    return out


def segment_sum(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Sum rows of ``x`` per segment; ``index`` is a plan or an id array.

    Forward is the plan's C loop or cached CSR matvec; the adjoint is the
    pure gather ``g[segment_ids]``.
    """
    x = as_tensor(x)
    plan = as_plan(index, num_segments)
    out_data = _reduce_sum_data(x.data, plan)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g[plan.segment_ids])

    return Tensor._result(out_data, (x,), "segment_sum", backward)


def segment_mean(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Mean-pool rows per segment (empty segments yield zeros).

    The count reciprocals come precomputed from the plan, so repeated calls
    (every SAGE layer, every mean readout, every epoch) do not rebuild a
    ``bincount`` + reciprocal tensor.
    """
    x = as_tensor(x)
    plan = as_plan(index, num_segments)
    inv = plan.inv_counts_for(x.data.dtype).reshape(
        (plan.num_segments,) + (1,) * (x.ndim - 1))
    sums = _reduce_sum_data(x.data, plan)
    if active_workspace() is not None:
        # The sum buffer is a workspace lease unique to this pass — scale
        # it in place rather than allocating the mean.
        out_data = np.multiply(sums, inv, out=sums)
    else:
        out_data = sums * inv

    def backward(g):
        if x.requires_grad:
            x._accumulate((g * inv)[plan.segment_ids])

    return Tensor._result(out_data, (x,), "segment_mean", backward)


def segment_max(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Max-pool rows per segment (empty segments yield zeros).

    Gradient splits evenly between ties inside each segment; the tie
    counts are themselves one plan sum.
    """
    x = as_tensor(x)
    plan = as_plan(index, num_segments)
    out_data = _reduce_max_data(x.data, plan)

    def backward(g):
        if not x.requires_grad:
            return
        winners = x.data == out_data[plan.segment_ids]
        tie_counts = np.maximum(
            _reduce_sum_data(winners.astype(x.data.dtype), plan), 1.0)
        x._accumulate(np.where(
            winners, g[plan.segment_ids] / tie_counts[plan.segment_ids], 0.0))

    return Tensor._result(out_data, (x,), "segment_max", backward)


def gather_segments(x: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Row-gather ``x[segment_ids]`` with a plan-backed scatter adjoint.

    Forward is identical to the plain row gather; the adjoint — a
    scatter-add of the output gradient back onto the segments — runs
    through the plan's sum kernel instead of ``np.add.at``.  Use it when
    the gather index *is* a plan's segment-id array (broadcasting per-node
    state to edges, per-graph state to nodes).
    """
    x = as_tensor(x)
    plan = as_plan(index, num_segments)
    out_data = x.data[plan.segment_ids]

    def backward(g):
        if x.requires_grad:
            x._accumulate(_reduce_sum_data(
                np.asarray(g, dtype=x.data.dtype), plan))

    return Tensor._result(out_data, (x,), "gather_segments", backward)


def segment_softmax(scores: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Softmax of ``scores`` grouped by segment (per-destination attention).

    Canonical implementation for GAT, Set2Set and any attention fusion: the
    per-segment max is subtracted as a constant for numerical stability;
    gradients flow through the exponential and normalizer exactly.  When a
    plain index array is given, one plan is built here and shared by the
    max / sum / gather sub-ops.
    """
    scores = as_tensor(scores)
    plan = as_plan(index, num_segments)
    seg_max = segment_max(scores, plan).detach()
    shifted = scores - gather_segments(seg_max, plan)
    exp = shifted.exp()
    denom = segment_sum(exp, plan)
    return exp / (gather_segments(denom, plan) + 1e-16)


def _gin_indices(h, edge_index, edge_attr, type_table, tag_table):
    """Range-checked ``(src, dst, attr)`` of one ``gin_message`` call.

    Raises ``IndexError`` for any node or bond id outside its table —
    before any C loop trusts them, as ``Embedding.forward`` does for the
    lookups it replaces."""
    edge_index = np.asarray(edge_index, dtype=np.int64)
    attr = np.ascontiguousarray(edge_attr, dtype=np.int64)
    num_edges = edge_index.shape[1] if edge_index.ndim == 2 else -1
    if edge_index.shape[:1] != (2,) or attr.shape != (num_edges, 2):
        raise ValueError(
            f"gin_message needs edge_index (2, E) and edge_attr (E, 2), got "
            f"{edge_index.shape} and {attr.shape}")
    for ids, size, what in ((edge_index, h.shape[0], "node"),
                            (attr[:, 0], type_table.shape[0], "bond type"),
                            (attr[:, 1], tag_table.shape[0], "bond tag")):
        if ids.size and (ids.min() < 0 or ids.max() >= size):
            raise IndexError(
                f"{what} ids out of range [0, {size}): "
                f"min={ids.min()}, max={ids.max()}")
    return edge_index[0], edge_index[1], attr


def gin_message(h: Tensor, edge_index, edge_attr, type_table,
                      tag_table, plan: SegmentPlan | None = None) -> Tensor:
    """GIN aggregation ``out[v] = sum_{e->v} h[src_e] + (T[a_e] + U[b_e])``
    as one node, ``(a_e, b_e) = edge_attr[e]`` indexing the bond-type and
    bond-tag tables ``T``/``U``.

    Forward is the C loop over the destination ``plan`` (the batch's
    cached one, or one built here), else the message gather plus the
    plan's sum kernel; the tape keeps no per-edge messages.  The adjoint
    gives ``h``, ``T`` and ``U`` one scatter each of ``g[dst]``, in edge
    order, without materializing it.
    """
    h, type_table, tag_table = (as_tensor(t) for t in (h, type_table,
                                                        tag_table))
    src, dst, attr = _gin_indices(h, edge_index, edge_attr, type_table,
                                  tag_table)
    plan = as_plan(dst if plan is None else plan, h.shape[0])
    if plan.num_items != dst.shape[0]:
        raise ValueError(f"plan covers {plan.num_items} edges, "
                         f"edge_index has {dst.shape[0]}")
    out_data = _kernels.gin_message_forward(h.data, type_table.data,
                                            tag_table.data, src, attr, plan)
    if out_data is None:
        out_data = _reduce_sum_data(
            _gin_messages(h, type_table, tag_table, src, attr), plan)
    return _gin_node(out_data, h, type_table, tag_table, src, dst, attr,
                     _kernels.scatter_rows)


def _gin_messages(h, type_table, tag_table, src, attr):
    """The per-edge messages ``h[src] + (T[a] + U[b])`` (E x d)."""
    return h.data[src] + (type_table.data[attr[:, 0]]
                          + tag_table.data[attr[:, 1]])


def _gin_node(out_data, h, type_table, tag_table, src, dst, attr, scatter):
    """The ``gin_message`` tape node: ``scatter(g, dst, index, n)`` sums
    ``g[dst]`` into ``h``'s, ``T``'s and ``U``'s rows in edge order."""
    def backward(g):
        if h.requires_grad:
            h._accumulate(scatter(g, dst, src, h.shape[0]))
        if type_table.requires_grad:
            type_table._accumulate(scatter(g, dst, attr[:, 0],
                                           type_table.shape[0]))
        if tag_table.requires_grad:
            tag_table._accumulate(scatter(g, dst, attr[:, 1],
                                          tag_table.shape[0]))

    return Tensor._result(out_data, (h, type_table, tag_table),
                          "gin_message", backward)
