"""Unified op registry: one declarative table driving backend dispatch.

Every differentiable kernel op of the nn layer — the segment family
(``segment_sum/mean/max/softmax``, ``gather_segments``), the row ops
(``gather``, ``scatter_add``), the one-node layer ops (``gin_message``,
``lstm_scan``, ``linear``, ``batch_norm``) and the elementwise reference
ops — is registered here exactly once, with:

* its **per-backend implementations**: ``legacy`` = the ``np.add.at``
  reference ops in :mod:`repro.nn.tensor` (and their one-node numpy
  counterparts for ``gin_message`` / ``lstm_scan``), and ``reduceat`` =
  the fast path — the plan-backed kernels in :mod:`repro.nn.segment`
  plus the ``scatter_add`` / ``lstm_scan`` wrappers in
  :mod:`repro.nn.compiled.kernels`, which run the JIT-built C kernels
  wherever they built and fall back per call to numpy otherwise;
* its **adjoint** (a one-line statement of the backward rule — consumed
  by humans and by the REP008 lint, which refuses registrations without
  one);
* its **parity tolerances** (``tolerance`` for cross-backend forward/grad
  comparison — 0.0 means bit-identical — plus ``gradcheck_tol`` for the
  numeric-vs-analytic sweep and ``float32_tol`` for the serving-dtype
  leg);
* deterministic **sample-input generators** covering the edge layouts the
  kernels must survive: empty index arrays, empty segments interleaved
  with large ones, single-segment batches, 1-D and matrix payloads,
  edgeless and self-looped graphs, and every policy dtype (the
  generators take the dtype as an argument).  A sample's ``grad_args``
  extend the sweeps to weights, tables and initial states.

The table is the single source of truth for three downstream layers:

* **Dispatch** — the public ops (``repro.nn.segment_sum`` et al.) are
  registry dispatchers: per-call cost is one ContextVar read and one dict
  hit, the ``(op, active backend)`` resolution walks the declared
  fallback chain (``reduceat`` -> ``legacy``) once and is cached.
  ``BENCH_segment_kernels.json``'s ``dispatch_overhead`` section pins
  the cost against a pinned-implementation loop.
* **Testing** — ``tests/nn/test_ops_gradients.py`` sweeps the whole
  database through gradcheck across every implemented backend and dtype;
  the tier-2 differential suite parametrizes over
  ``OP_REGISTRY.backends()``; the optional torch-parity suite replays the
  same sample inputs through torch.
* **Linting** — REP004/REP005/REP008 statically parse the registrations
  (:mod:`repro.devtools.opregs`) instead of reverse-engineering op
  structure from AST heuristics.  Keep each ``register(...)`` call a
  literal (constant op name, dict-literal backends) so the lints can see
  it.

Registering a new backend is two lines (``register_backend`` + impl
entries in the ``register`` calls of the ops it accelerates); every suite
and lint picks it up from the table with no further wiring.
"""

from __future__ import annotations

import contextvars

import numpy as np

from . import rnn as _rnn
from . import segment as _segment
from . import tensor as _tensor
from .compiled import kernels as _kernels
from .tensor import Tensor, as_tensor

__all__ = [
    "OpRegistry",
    "OpEntry",
    "SampleInput",
    "OP_REGISTRY",
    "use_backend",
    "active_backend",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "gather_segments",
    "scatter_add",
    "gather",
    "matmul",
    "concat",
    "lstm_scan",
    "gin_message",
    "linear",
    "batch_norm",
]


class SampleInput:
    """One deterministic op invocation: ``op(data, *args)``.

    ``data`` is the differentiated payload (wrapped in a Tensor by the
    sweeps); ``args`` are the trailing arguments (index arrays, segment
    counts, weights).  ``grad_args`` lists the positions in ``args`` the
    sweeps also wrap as grad-tracked Tensors and check gradients of
    (weights, embedding tables, initial states).  ``label`` names the
    layout the sample exists to pin (``"interleaved_empty"``,
    ``"flat"``, ...).
    """

    __slots__ = ("label", "data", "args", "grad_args")

    def __init__(self, label: str, data: np.ndarray, args: tuple = (),
                 grad_args: tuple = ()):
        self.label = label
        self.data = data
        self.args = tuple(args)
        self.grad_args = tuple(grad_args)

    def __repr__(self) -> str:
        return f"SampleInput({self.label!r}, shape={self.data.shape})"


class _BackendSpec:
    __slots__ = ("name", "fallback", "description")

    def __init__(self, name: str, fallback: str | None, description: str):
        self.name = name
        self.fallback = fallback
        self.description = description


class OpEntry:
    """One registered op: implementations, adjoint, tolerances, samples."""

    __slots__ = ("name", "impls", "adjoint", "samples", "tolerance",
                 "gradcheck_tol", "float32_tol", "differentiable", "waiver")

    def __init__(self, name, impls, adjoint, samples, tolerance,
                 gradcheck_tol, float32_tol, differentiable, waiver):
        self.name = name
        self.impls = impls
        self.adjoint = adjoint
        self.samples = samples
        self.tolerance = tolerance
        self.gradcheck_tol = gradcheck_tol
        self.float32_tol = float32_tol
        self.differentiable = differentiable
        self.waiver = waiver

    def __repr__(self) -> str:
        return f"OpEntry({self.name!r}, backends={tuple(self.impls)})"


class OpRegistry:
    """Declarative op table + cached ``(op, backend)`` dispatch.

    Backends form a fallback chain: resolving ``(op, backend)`` walks
    ``backend -> fallback -> ...`` until an implementation is found, so a
    partially-implemented backend (``reduceat`` has no ``gather`` or
    elementwise impls) serves the ops it has and inherits the rest.
    Resolution happens once per ``(op, backend)`` pair; dispatchers then
    run on a plain dict hit.
    """

    def __init__(self):
        self._backends: dict[str, _BackendSpec] = {}
        self._ops: dict[str, OpEntry] = {}
        self._dispatchers: dict = {}

    # -- declaration ---------------------------------------------------
    def register_backend(self, name: str, fallback: str | None = None,
                         description: str = "") -> None:
        """Declare a backend; ops name it in their ``register`` call."""
        if name in self._backends:
            raise ValueError(f"backend {name!r} already registered")
        if fallback is not None and fallback not in self._backends:
            raise ValueError(
                f"backend {name!r} falls back to undeclared {fallback!r}")
        self._backends[name] = _BackendSpec(name, fallback, description)

    def register(self, name: str, backends: dict, adjoint: str,
                 samples, tolerance: float = 0.0,
                 gradcheck_tol: float = 1e-5, float32_tol: float = 1e-4,
                 differentiable: bool = True,
                 waiver: str | None = None) -> OpEntry:
        """Register one op.  ``backends`` maps backend name -> impl.

        Every op must declare an adjoint description and a sample-input
        generator ``samples(dtype) -> [SampleInput, ...]``, and either
        two backends or an explicit single-backend ``waiver`` — the
        REP008 lint enforces the same contract statically.
        """
        if name in self._ops:
            raise ValueError(f"op {name!r} already registered")
        if not backends:
            raise ValueError(f"op {name!r} registered with no backends")
        for backend in backends:
            if backend not in self._backends:
                raise ValueError(
                    f"op {name!r} registered for undeclared backend "
                    f"{backend!r}; declared: {self.declared_backends()}")
        if not adjoint:
            raise ValueError(f"op {name!r} registered without an adjoint")
        if not callable(samples):
            raise ValueError(f"op {name!r} needs a samples(dtype) generator")
        if len(backends) < 2 and waiver is None:
            raise ValueError(
                f"op {name!r} has a single backend and no waiver")
        entry = OpEntry(name, dict(backends), adjoint, samples,
                        float(tolerance), float(gradcheck_tol),
                        float(float32_tol), bool(differentiable), waiver)
        self._ops[name] = entry
        return entry

    # -- introspection -------------------------------------------------
    def ops(self) -> tuple:
        """Registered op names, sorted."""
        return tuple(sorted(self._ops))

    def get(self, name: str) -> OpEntry:
        entry = self._ops.get(name)
        if entry is None:
            raise KeyError(f"unknown op {name!r}; registered: {self.ops()}")
        return entry

    def declared_backends(self) -> tuple:
        """Every declared backend name, in declaration order."""
        return tuple(self._backends)

    def backend_info(self, name: str) -> dict:
        """Declared metadata of backend ``name``: fallback + description."""
        spec = self._backends.get(name)
        if spec is None:
            raise ValueError(
                f"unknown backend {name!r}; known: "
                f"{self.declared_backends()}")
        return {"fallback": spec.fallback, "description": spec.description}

    def backends(self) -> tuple:
        """Backends with at least one direct implementation (declaration
        order) — what the parity/gradcheck suites iterate over.  A
        declared backend with no impls would dispatch entirely through
        its fallback and only duplicate its coverage, so it is left out."""
        implemented = set()
        for entry in self._ops.values():
            implemented.update(entry.impls)
        return tuple(b for b in self._backends if b in implemented)

    # -- dispatch ------------------------------------------------------
    def resolve(self, name: str, backend: str):
        """The implementation serving ``(op, backend)`` via the fallback
        chain.  Raises for unknown ops/backends and unreachable impls."""
        entry = self.get(name)
        if backend not in self._backends:
            raise ValueError(
                f"unknown backend {backend!r}; known: "
                f"{self.declared_backends()}")
        current: str | None = backend
        while current is not None:
            impl = entry.impls.get(current)
            if impl is not None:
                return impl
            current = self._backends[current].fallback
        raise LookupError(
            f"op {name!r} has no implementation reachable from backend "
            f"{backend!r}")

    def dispatcher(self, name: str):
        """The cached public entry point for ``name``: resolves the
        active backend once per ``(op, backend)`` pair, then dispatches
        on a dict hit (zero resolution work on the hot path)."""
        dispatch = self._dispatchers.get(name)
        if dispatch is not None:
            return dispatch
        entry = self.get(name)
        table: dict = {}

        def dispatch(*args, **kwargs):
            backend = _ACTIVE_BACKEND.get()
            impl = table.get(backend)
            if impl is None:
                impl = self.resolve(name, backend)
                table[backend] = impl
            return impl(*args, **kwargs)

        primary = entry.impls.get("reduceat") or next(iter(entry.impls.values()))
        dispatch.__name__ = name
        dispatch.__qualname__ = name
        dispatch.__doc__ = primary.__doc__
        dispatch.__wrapped__ = primary
        self._dispatchers[name] = dispatch
        return dispatch


#: The process-wide registry.  Populated below at import time (under the
#: interpreter's module import lock); everything afterwards only reads.
OP_REGISTRY = OpRegistry()

OP_REGISTRY.register_backend(
    "legacy",
    description="np.add.at reference ops (repro.nn.tensor)")
OP_REGISTRY.register_backend(
    "reduceat", fallback="legacy",
    description="fast path: JIT-built C kernels (repro.nn.compiled) where "
                "they built, else SegmentPlan CSR matvec / vertical max")


#: Context-local backend selection.  A ``ContextVar`` instead of a
#: process-global stack makes ``use_backend`` compose across threads: a
#: differential test pinning the legacy backend in one thread cannot
#: reroute forwards running concurrently on serving workers.  Fresh
#: threads start from the default ("reduceat") backend.
_ACTIVE_BACKEND: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_segment_backend", default="reduceat")


def active_backend() -> str:
    """Name of the backend ops currently dispatch to (context-local)."""
    return _ACTIVE_BACKEND.get()


class use_backend:
    """Context manager selecting the kernel-op backend.

    ``"reduceat"`` (default) is the fast path (C kernels where they
    built, plan-backed numpy otherwise); ``"legacy"`` routes through the
    ``np.add.at`` reference implementations in :mod:`repro.nn.tensor` for
    differential testing.  Any name must be declared in
    :data:`OP_REGISTRY`.

    The selection is context-local (``contextvars``), so it only affects
    the entering thread; one instance may be re-entered / nested.
    """

    def __init__(self, name: str):
        if name not in OP_REGISTRY.declared_backends():
            raise ValueError(
                f"unknown backend {name!r}; known: "
                f"{OP_REGISTRY.declared_backends()}")
        self.name = name
        self._tokens: list[contextvars.Token] = []

    def __enter__(self):
        self._tokens.append(_ACTIVE_BACKEND.set(self.name))
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_BACKEND.reset(self._tokens.pop())
        return False


# ----------------------------------------------------------------------
# Sample-input generators (deterministic; dtype is the caller's policy)
# ----------------------------------------------------------------------
def _segment_layouts():
    """Named ``(segment_ids, num_segments)`` edge layouts every segment
    kernel must survive: dense, empty-segments-interleaved-with-large,
    single-segment, the zero-length index array, and long segments
    (24 rows each) where a kernel that does not add rows sequentially
    drifts from the ``np.add.at`` reference."""
    rng = np.random.default_rng(20260808)
    dense = rng.integers(0, 5, size=18).astype(np.int64)
    interleaved = np.repeat(np.arange(6), [4, 0, 7, 0, 1, 3]).astype(np.int64)
    rng.shuffle(interleaved)
    long_segments = np.repeat(np.arange(2), 24).astype(np.int64)
    rng.shuffle(long_segments)
    return [
        ("dense", dense, 5),
        ("interleaved_empty", interleaved, 6),
        ("single_segment", np.zeros(7, dtype=np.int64), 1),
        ("empty", np.zeros(0, dtype=np.int64), 3),
        ("long_segments", long_segments, 2),
    ]


def _segment_row_samples(dtype):
    """Row payloads for the per-item segment reductions (sum/mean/max)."""
    rng = np.random.default_rng(7)
    out = []
    for label, ids, n in _segment_layouts():
        data = rng.normal(size=(ids.size, 3)).astype(dtype)
        out.append(SampleInput(label, data, (ids, n)))
    flat_ids = np.array([1, 0, 1, 2, 0], dtype=np.int64)
    out.append(SampleInput("flat", rng.normal(size=5).astype(dtype),
                           (flat_ids, 3)))
    return out


def _segment_score_samples(dtype):
    """1-D score payloads for ``segment_softmax`` (empty layout excluded:
    a softmax over zero rows is vacuous and fuzz-covered elsewhere)."""
    rng = np.random.default_rng(11)
    out = []
    for label, ids, n in _segment_layouts():
        if ids.size == 0:
            continue
        out.append(SampleInput(label, rng.normal(size=ids.size).astype(dtype),
                               (ids, n)))
    return out


def _gather_segment_samples(dtype):
    """Per-segment payloads broadcast to items (``gather_segments``)."""
    rng = np.random.default_rng(13)
    out = []
    for label, ids, n in _segment_layouts():
        data = rng.normal(size=(n, 3)).astype(dtype)
        out.append(SampleInput(label, data, (ids, n)))
    return out


def _gather_samples(dtype):
    """Row payloads + repeating index arrays for the plain row gather."""
    rng = np.random.default_rng(17)
    out = []
    for label, ids, n in _segment_layouts():
        data = rng.normal(size=(n, 3)).astype(dtype)
        out.append(SampleInput(label, data, (ids,)))
    return out


def _scatter_add_samples(dtype):
    """Gradient payloads scattered into rows (the gather adjoint)."""
    rng = np.random.default_rng(19)
    out = []
    for label, ids, n in _segment_layouts():
        data = rng.normal(size=(ids.size, 3)).astype(dtype)
        out.append(SampleInput(label, data, (ids, n)))
    return out


def _matmul_samples(dtype):
    """Differentiated left operands with fixed right operands (via args):
    matrix@matrix, matrix@vector and vector@matrix layouts."""
    rng = np.random.default_rng(53)
    mat = rng.normal(size=(4, 3)).astype(dtype)
    return [
        SampleInput("mat_mat", mat, (rng.normal(size=(3, 2)).astype(dtype),)),
        SampleInput("mat_vec", mat, (rng.normal(size=3).astype(dtype),)),
        SampleInput("vec_mat", rng.normal(size=4).astype(dtype),
                    (rng.normal(size=(4, 2)).astype(dtype),)),
    ]


def _concat_samples(dtype):
    """Differentiated left halves with fixed right halves (via args),
    joined along the trailing and the leading axis, plus 1-D payloads."""
    rng = np.random.default_rng(59)
    return [
        SampleInput("last_axis", rng.normal(size=(3, 4)).astype(dtype),
                    (rng.normal(size=(3, 2)).astype(dtype), -1)),
        SampleInput("leading_axis", rng.normal(size=(2, 3)).astype(dtype),
                    (rng.normal(size=(4, 3)).astype(dtype), 0)),
        SampleInput("vector", rng.normal(size=5).astype(dtype),
                    (rng.normal(size=3).astype(dtype), 0)),
    ]


def _lstm_scan_samples(dtype):
    """Scans differentiated w.r.t. the stacked ``(T, B, I)`` step inputs
    and the packed ``[i, f, g, o]`` gate weights (scaled to keep the
    gates in their smooth region): a short scan, one step from grad-
    tracked ``h0``/``c0`` (Set2Set's use), and the two directions of a
    T=5 bidirectional LSTM — the forward sequence and its reverse."""
    rng = np.random.default_rng(61)
    w_x = (0.4 * rng.normal(size=(3, 8))).astype(dtype)
    w_h = (0.4 * rng.normal(size=(2, 8))).astype(dtype)
    bias = rng.normal(size=8).astype(dtype)
    h0 = (0.5 * rng.normal(size=(4, 2))).astype(dtype)
    c0 = (0.5 * rng.normal(size=(4, 2))).astype(dtype)
    weights = (w_x, w_h, bias)
    five = rng.normal(size=(5, 2, 3)).astype(dtype)
    return [
        SampleInput("scan", rng.normal(size=(3, 4, 3)).astype(dtype),
                    weights, grad_args=(0, 1, 2)),
        SampleInput("single_step_with_state",
                    rng.normal(size=(1, 4, 3)).astype(dtype),
                    weights + (h0, c0), grad_args=(0, 1, 2, 3, 4)),
        SampleInput("bidirectional_T5_forward", five, weights,
                    grad_args=(0, 1, 2)),
        SampleInput("bidirectional_T5_reverse",
                    np.ascontiguousarray(five[::-1]), weights,
                    grad_args=(0, 1, 2)),
    ]


def _gin_layouts():
    """Named ``(num_nodes, edge_index, edge_attr)`` message-passing
    layouts: a molecule-like batch, no edges, isolated nodes, self-loops
    with duplicate edges, and mask-token bond ids (type 4, the last row
    of the 5-row type table)."""
    rng = np.random.default_rng(67)
    num_edges = 14
    dense = rng.integers(0, 6, size=(2, num_edges))
    dense_attr = np.stack([rng.integers(0, 4, size=num_edges),
                           rng.integers(0, 3, size=num_edges)], axis=1)
    isolated = np.array([[0, 1, 5, 1], [1, 0, 1, 5]])
    loops = np.array([[2, 2, 0, 3, 3, 3], [2, 2, 3, 0, 0, 3]])
    masked = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
    return [
        ("dense", 6, dense, dense_attr),
        ("no_edges", 4, np.zeros((2, 0), dtype=np.int64),
         np.zeros((0, 2), dtype=np.int64)),
        ("isolated_nodes", 7, isolated, np.array([[0, 1], [1, 2], [2, 0],
                                                  [3, 1]])),
        ("self_loop_duplicates", 4, loops,
         np.array([[1, 0], [1, 0], [0, 2], [2, 1], [2, 1], [3, 0]])),
        ("mask_token_bonds", 4, masked,
         np.array([[4, 0], [4, 2], [0, 1], [4, 1]])),
    ]


def _gin_message_samples(dtype):
    """Node payloads differentiated together with the 5x3 bond-type and
    3x3 bond-tag tables (the +1 type row is the mask token)."""
    rng = np.random.default_rng(71)
    out = []
    for label, num_nodes, edge_index, edge_attr in _gin_layouts():
        type_table = rng.normal(size=(5, 3)).astype(dtype)
        tag_table = rng.normal(size=(3, 3)).astype(dtype)
        out.append(SampleInput(
            label, rng.normal(size=(num_nodes, 3)).astype(dtype),
            (edge_index.astype(np.int64), edge_attr.astype(np.int64),
             type_table, tag_table), grad_args=(2, 3)))
    return out


def _linear_samples(dtype):
    """Row batches and a single vector through a 3->2 affine map (weight
    and bias differentiated too), plus the bias-free map."""
    rng = np.random.default_rng(73)
    weight = rng.normal(size=(3, 2)).astype(dtype)
    bias = rng.normal(size=2).astype(dtype)
    return [
        SampleInput("rows", rng.normal(size=(4, 3)).astype(dtype),
                    (weight, bias), grad_args=(0, 1)),
        SampleInput("vector", rng.normal(size=3).astype(dtype),
                    (weight, bias), grad_args=(0, 1)),
        SampleInput("no_bias", rng.normal(size=(4, 3)).astype(dtype),
                    (weight,), grad_args=(0,)),
    ]


def _batch_norm_samples(dtype):
    """Rows normalized by their own batch statistics and by fixed running
    statistics (``gamma``/``beta`` differentiated too)."""
    rng = np.random.default_rng(79)
    x = rng.normal(size=(5, 3)).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, size=3).astype(dtype)
    beta = rng.normal(size=3).astype(dtype)
    batch_inv_std = (1.0 / np.sqrt(x.var(axis=0) + 1e-5)).astype(dtype)
    running_mean = rng.normal(size=3).astype(dtype)
    running_inv_std = rng.uniform(0.5, 2.0, size=3).astype(dtype)
    return [
        SampleInput("batch_stats", x, (x.mean(axis=0), batch_inv_std,
                                       gamma, beta), grad_args=(2, 3)),
        SampleInput("running_stats", rng.normal(size=(4, 3)).astype(dtype),
                    (running_mean, running_inv_std, gamma, beta),
                    grad_args=(2, 3)),
    ]


def _elementwise_samples(low, high, seed):
    """A ``samples(dtype)`` generator over ``uniform(low, high)`` values
    — the bounds keep each op inside its smooth, finite-difference-safe
    domain (positive for log/sqrt, away from 0 for relu/abs kinks)."""
    def build(dtype):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(low, high, size=(4, 3)).astype(dtype)
        vector = rng.uniform(low, high, size=6).astype(dtype)
        return [SampleInput("matrix", matrix), SampleInput("vector", vector)]
    return build


def _signed_elementwise_samples(seed):
    """Signed values with magnitude >= 0.5: exercises both branches of
    relu/abs while staying clear of the non-differentiable kink at 0."""
    def build(dtype):
        rng = np.random.default_rng(seed)
        magnitude = rng.uniform(0.5, 2.0, size=(4, 3))
        sign = np.where(rng.uniform(size=(4, 3)) < 0.5, -1.0, 1.0)
        return [SampleInput("signed", (magnitude * sign).astype(dtype))]
    return build


# ----------------------------------------------------------------------
# Elementwise reference ops (single canonical implementation each)
# ----------------------------------------------------------------------
def _ew_exp(x):
    """exp(x); adjoint g * exp(x)."""
    return as_tensor(x).exp()


def _ew_log(x):
    """log(x); adjoint g / x."""
    return as_tensor(x).log()


def _ew_sqrt(x):
    """sqrt(x); adjoint g / (2 sqrt(x))."""
    return as_tensor(x).sqrt()


def _ew_tanh(x):
    """tanh(x); adjoint g * (1 - tanh(x)^2)."""
    return as_tensor(x).tanh()


def _ew_sigmoid(x):
    """sigmoid(x); adjoint g * s * (1 - s)."""
    return as_tensor(x).sigmoid()


def _ew_relu(x):
    """relu(x); adjoint g * (x > 0)."""
    return as_tensor(x).relu()


def _ew_abs(x):
    """abs(x); adjoint g * sign(x)."""
    return as_tensor(x).abs()


# ----------------------------------------------------------------------
# Structural reference ops (matmul / concat)
# ----------------------------------------------------------------------
def _matmul_ref(x, other):
    """x @ other; adjoints g @ other^T and x^T @ g (outer products in
    the 1-D cases)."""
    return as_tensor(x) @ as_tensor(other)


def _concat_ref(x, other, axis=-1):
    """concatenate([x, other], axis); the adjoint splits g back at the
    operand boundary."""
    return _tensor.concatenate([as_tensor(x), as_tensor(other)], axis=axis)


# ----------------------------------------------------------------------
# One-node layer ops (Linear / BatchNorm1d)
# ----------------------------------------------------------------------
def _linear(x, weight, bias=None):
    """``out = x @ weight; out += bias`` as one node — the arithmetic of
    the matmul + add composition it replaces.  Adjoints: ``g @
    weight^T`` (an outer product for 1-D ``g``), ``x^T @ g`` (``outer(x,
    g)`` for 1-D ``x``) and ``g`` summed over the leading axes.  Without
    a bias the plain matmul node already is one node."""
    x, weight = as_tensor(x), as_tensor(weight)
    if bias is None:
        return x @ weight
    bias = as_tensor(bias)
    out_data = x.data @ weight.data
    out_data += bias.data

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(g)
        if x.requires_grad:
            x._accumulate(g @ weight.data.swapaxes(-1, -2))
        if weight.requires_grad:
            if x.data.ndim == 1:
                weight._accumulate(np.outer(x.data, g))
            else:
                weight._accumulate(x.data.swapaxes(-1, -2) @ g)

    return Tensor._result(out_data, (x, weight, bias), "linear", backward)


def _batch_norm(x, mean, inv_std, gamma, beta):
    """``(x - mean) * inv_std * gamma + beta`` as one node, the statistics
    ``mean``/``inv_std`` held constant (cast to the active dtype).  Keeps
    only the normalized activations; adjoints ``g * gamma * inv_std``,
    ``sum(g * normed)`` and ``sum(g)`` over the rows."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    inv_std = as_tensor(inv_std).data
    normed = (x.data - as_tensor(mean).data) * inv_std
    out_data = normed * gamma.data
    out_data += beta.data

    def backward(g):
        if beta.requires_grad:
            beta._accumulate(g)
        if gamma.requires_grad:
            gamma._accumulate(g * normed)
        if x.requires_grad:
            x._accumulate(g * gamma.data * inv_std)

    return Tensor._result(out_data, (x, gamma, beta), "batch_norm", backward)


# ----------------------------------------------------------------------
# The op database.  One register(...) call per op; keep these literal
# (constant names, dict-literal backends) — REP004/REP005/REP008 parse
# them statically.
# ----------------------------------------------------------------------
OP_REGISTRY.register(
    "segment_sum",
    backends={"reduceat": _segment._segment_sum_plan,
              "legacy": _segment._segment_sum_legacy},
    adjoint="dL/dx = g[segment_ids] — a pure row gather",
    samples=_segment_row_samples,
    tolerance=0.0,
)

OP_REGISTRY.register(
    "segment_mean",
    backends={"reduceat": _segment._segment_mean_plan,
              "legacy": _segment._segment_mean_legacy},
    adjoint="dL/dx = (g / counts)[segment_ids] — gather of the scaled grad",
    samples=_segment_row_samples,
    tolerance=0.0,
)

OP_REGISTRY.register(
    "segment_max",
    backends={"reduceat": _segment._segment_max_plan,
              "legacy": _segment._segment_max_legacy},
    adjoint="dL/dx = g[segment_ids] / ties where x == max(segment), else 0",
    samples=_segment_row_samples,
    tolerance=0.0,
)

OP_REGISTRY.register(
    "segment_softmax",
    backends={"reduceat": _segment._segment_softmax_plan,
              "legacy": _segment._segment_softmax_legacy},
    adjoint="dL/dx = p * (g - sum_segment(g * p)) — composed from "
            "max/gather/exp/sum sub-adjoints",
    samples=_segment_score_samples,
    tolerance=1e-12,
    gradcheck_tol=1e-4,
)

OP_REGISTRY.register(
    "gather_segments",
    backends={"reduceat": _segment._gather_segments_plan,
              "legacy": _segment._gather_segments_legacy},
    adjoint="dL/dx = segment_sum(g) — scatter-add of g onto segments",
    samples=_gather_segment_samples,
    tolerance=0.0,
)

OP_REGISTRY.register(
    "scatter_add",
    backends={"reduceat": _kernels._scatter_add_compiled,
              "legacy": _tensor._legacy_scatter_add},
    adjoint="linear map: the adjoint of scatter-add is the row gather "
            "(this op IS the gather adjoint; it is not itself taped)",
    samples=_scatter_add_samples,
    tolerance=0.0,
    differentiable=False,
)

OP_REGISTRY.register(
    "gather",
    backends={"legacy": _tensor._gather},
    adjoint="dL/dx = scatter_add(g, index, num_rows) — duplicate indices "
            "accumulate in appearance order",
    samples=_gather_samples,
    tolerance=0.0,
    waiver="backend-independent forward (x.data[index]); the adjoint "
           "dispatches through the registered scatter_add",
)

OP_REGISTRY.register(
    "exp",
    backends={"legacy": _ew_exp},
    adjoint="dL/dx = g * exp(x)",
    samples=_elementwise_samples(-2.0, 2.0, 23),
    tolerance=0.0,
    waiver="elementwise reference op; single canonical implementation",
)

OP_REGISTRY.register(
    "log",
    backends={"legacy": _ew_log},
    adjoint="dL/dx = g / x",
    samples=_elementwise_samples(0.5, 3.0, 29),
    tolerance=0.0,
    waiver="elementwise reference op; single canonical implementation",
)

OP_REGISTRY.register(
    "sqrt",
    backends={"legacy": _ew_sqrt},
    adjoint="dL/dx = g / (2 sqrt(x)), clamped away from 0",
    samples=_elementwise_samples(0.5, 3.0, 31),
    tolerance=0.0,
    waiver="elementwise reference op; single canonical implementation",
)

OP_REGISTRY.register(
    "tanh",
    backends={"legacy": _ew_tanh},
    adjoint="dL/dx = g * (1 - tanh(x)^2)",
    samples=_elementwise_samples(-2.0, 2.0, 37),
    tolerance=0.0,
    waiver="elementwise reference op; single canonical implementation",
)

OP_REGISTRY.register(
    "sigmoid",
    backends={"legacy": _ew_sigmoid},
    adjoint="dL/dx = g * sigmoid(x) * (1 - sigmoid(x))",
    samples=_elementwise_samples(-3.0, 3.0, 41),
    tolerance=0.0,
    waiver="elementwise reference op; single canonical implementation",
)

OP_REGISTRY.register(
    "relu",
    backends={"legacy": _ew_relu},
    adjoint="dL/dx = g * (x > 0)",
    samples=_signed_elementwise_samples(43),
    tolerance=0.0,
    waiver="elementwise reference op; single canonical implementation",
)

OP_REGISTRY.register(
    "abs",
    backends={"legacy": _ew_abs},
    adjoint="dL/dx = g * sign(x)",
    samples=_signed_elementwise_samples(47),
    tolerance=0.0,
    waiver="elementwise reference op; single canonical implementation",
)

OP_REGISTRY.register(
    "matmul",
    backends={"legacy": _matmul_ref},
    adjoint="dL/dx = g @ other^T, dL/dother = x^T @ g (outer products "
            "in the 1-D cases)",
    samples=_matmul_samples,
    tolerance=0.0,
    waiver="backend-independent BLAS matmul (Tensor.__matmul__); single "
           "canonical implementation",
)

OP_REGISTRY.register(
    "concat",
    backends={"legacy": _concat_ref},
    adjoint="dL/dx, dL/dother = exact axis-slices of g, split at the "
            "operand boundary",
    samples=_concat_samples,
    tolerance=0.0,
    waiver="backend-independent np.concatenate forward; single canonical "
           "implementation",
)

OP_REGISTRY.register(
    "lstm_scan",
    backends={"reduceat": _kernels._lstm_scan_compiled,
              "legacy": _rnn._lstm_scan_legacy},
    adjoint="one node; numpy BPTT over the saved per-step gates, shared "
            "by both forwards: per step in reverse, d_pre_i = dc*g*i*(1-i) "
            "etc., dx[t] = dgates @ w_x^T, dh = dgates @ w_h^T, dc = dc*f; "
            "dW accumulated from step T-1 down to 0; h0/c0 get the step-0 "
            "state gradients",
    samples=_lstm_scan_samples,
    tolerance=0.0,
    gradcheck_tol=1e-4,
    float32_tol=5e-4,
)

OP_REGISTRY.register(
    "gin_message",
    backends={"reduceat": _segment._gin_message_plan,
              "legacy": _segment._gin_message_legacy},
    adjoint="with gm = g[dst]: dh = scatter_add(gm, src), dT = "
            "scatter_add(gm, a), dU = scatter_add(gm, b), each in edge "
            "order (the reduceat legs scatter g[dst] rows without "
            "materializing gm)",
    samples=_gin_message_samples,
    tolerance=0.0,
)

OP_REGISTRY.register(
    "linear",
    backends={"legacy": _linear},
    adjoint="dL/dx = g @ W^T, dL/dW = x^T @ g, dL/db = sum of g over the "
            "leading axes",
    samples=_linear_samples,
    tolerance=0.0,
    waiver="backend-independent BLAS matmul + bias add; single canonical "
           "implementation",
)

OP_REGISTRY.register(
    "batch_norm",
    backends={"legacy": _batch_norm},
    adjoint="statistics constant: dL/dx = g * gamma * inv_std, dL/dgamma "
            "= sum(g * normed), dL/dbeta = sum(g) over the rows",
    samples=_batch_norm_samples,
    tolerance=0.0,
    waiver="backend-independent elementwise affine; single canonical "
           "implementation",
)


# ----------------------------------------------------------------------
# Public entry points: one cached registry dispatcher per op.
# ----------------------------------------------------------------------
segment_sum = OP_REGISTRY.dispatcher("segment_sum")
segment_mean = OP_REGISTRY.dispatcher("segment_mean")
segment_max = OP_REGISTRY.dispatcher("segment_max")
segment_softmax = OP_REGISTRY.dispatcher("segment_softmax")
gather_segments = OP_REGISTRY.dispatcher("gather_segments")
scatter_add = OP_REGISTRY.dispatcher("scatter_add")
gather = OP_REGISTRY.dispatcher("gather")
matmul = OP_REGISTRY.dispatcher("matmul")
concat = OP_REGISTRY.dispatcher("concat")
lstm_scan = OP_REGISTRY.dispatcher("lstm_scan")
gin_message = OP_REGISTRY.dispatcher("gin_message")
linear = OP_REGISTRY.dispatcher("linear")
batch_norm = OP_REGISTRY.dispatcher("batch_norm")
