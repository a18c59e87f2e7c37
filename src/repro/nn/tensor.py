"""A small reverse-mode automatic differentiation engine on numpy.

This module is the computational substrate of the whole reproduction: the
paper's search algorithm (Gumbel-softmax relaxation, Eq. 17-18) requires
gradients of the fine-tuning loss with respect to both GNN weights ``theta``
and controller parameters ``alpha``, flowing through mixtures of candidate
operators, LSTM fusion, and attention readouts.  Rather than hand-deriving
those gradients we implement a generic tape-based autodiff over numpy arrays.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (``float64`` under the
  default :class:`~repro.nn.policy.ExecutionPolicy` for numerically robust
  finite-difference checking; float32 under ``serving_policy()``) plus an
  optional gradient.
* Each differentiable operation returns a new tensor holding a ``_backward``
  closure that accumulates into its parents' ``grad`` buffers.
* :meth:`Tensor.backward` frees the graph as it goes (there is no
  ``retain_graph``): only leaf gradients and the root's seed survive it.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` reduces an
  output gradient back to a parent's shape.
* Integer index arrays (for message passing ``gather`` / ``segment_sum``)
  are plain numpy arrays, never tensors.
"""

from __future__ import annotations

import contextvars

import numpy as np

from .policy import active_dtype, workspace_zeros

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "gather",
]


#: Context-local grad-recording flag.  A ``ContextVar`` instead of a
#: process-global stack makes ``no_grad`` compose across threads: every
#: thread (and every ``contextvars`` context) sees its own state, so a
#: serving worker evaluating under ``no_grad`` cannot switch off tape
#: recording for a training loop running concurrently in another thread.
#: Fresh threads start from the default (grad enabled) — they do *not*
#: inherit the spawning thread's ``no_grad`` nesting.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True)


class no_grad:
    """Context manager that disables gradient tape recording.

    Used by evaluation loops and by fine-tuning strategies that freeze
    submodules (e.g. Feature Extractor, Last-k) to avoid building graphs
    for frozen computations.

    The flag is context-local (``contextvars``): entering ``no_grad`` in
    one thread leaves every other thread's grad state untouched.  One
    instance may be re-entered / nested (tokens are kept as a stack).
    """

    def __init__(self):
        self._tokens: list[contextvars.Token] = []

    def __enter__(self):
        self._tokens.append(_GRAD_ENABLED.set(False))
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_ENABLED.reset(self._tokens.pop())
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients (context-local)."""
    return _GRAD_ENABLED.get()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to an ndarray in the active
        :class:`~repro.nn.policy.ExecutionPolicy` dtype (``float64``
        by default).  An ndarray already in the policy dtype is wrapped
        without copying — the policy-threaded kernels exploit this to
        hand workspace buffers straight to tensors.
    requires_grad:
        If True, ``backward()`` populates :attr:`grad` for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")

    def __init__(self, data, requires_grad: bool = False, _prev=(), _op: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=active_dtype())
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward = None
        self._prev = tuple(p for p in _prev if isinstance(p, Tensor))
        self._op = _op

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the tape."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op or 'leaf'})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # autodiff machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                            self.data.shape)
        if self.grad is not None:
            self.grad = self.grad + grad
        elif self._backward is not None and grad.flags.c_contiguous:
            # Interior: read once by backward() and never written, so the
            # array is kept even when shared (``__add__`` hands one ``g``
            # to both parents) or read-only.
            self.grad = grad
        else:
            # Leaves get a private, writable copy (optimizers and
            # clip_grad_norm update it in place).  A strided gradient is
            # compacted to the C layout downstream adjoints always saw,
            # which keeps results bit-identical.
            self.grad = grad.copy()

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor, freeing the graph.

        Each interior node is released as soon as its adjoint has run:
        its ``grad``, ``_backward`` closure and ``_prev`` links are
        dropped, so the activations the closures hold are freed during
        the pass rather than when the caller lets go of the output.  Leaf
        gradients and this tensor's own gradient are kept.  A second
        ``backward()`` through a released node raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to ones (scalar outputs use 1.0).
        """
        topo: list[Tensor] = []
        visited: set[int] = set()
        # Iterative DFS (deep graphs from K-layer GNNs + LSTMs would
        # overflow Python's recursion limit).
        post: list[tuple[Tensor, bool]] = [(self, False)]
        while post:
            node, processed = post.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            post.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    post.append((parent, False))

        # This tensor keeps its gradient, so a caller's seed is copied.
        self._accumulate(np.ones_like(self.data) if grad is None
                         else np.array(grad, dtype=self.data.dtype))
        while topo:
            # Popping drops the walk's own reference, so a released node's
            # activation is freed here unless the caller still holds it.
            node = topo.pop()
            adjoint = node._backward
            if adjoint is None:
                continue
            if node.grad is not None:
                adjoint(node.grad)
            if node is not self:
                node.grad = None
            node._backward = _released_backward
            node._prev = ()

    @staticmethod
    def _result(data, parents, op, backward):
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else (), _op=op)
        if requires:
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor._result(out_data, (self, other), "add", backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._result(-self.data, (self,), "neg", backward)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return Tensor._result(out_data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data ** 2))

        return Tensor._result(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._result(out_data, (self,), "pow", backward)

    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(g, other.data) if g.ndim else g * other.data)
                else:
                    self._accumulate(g @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, g))
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ g)

        return Tensor._result(out_data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._result(out_data, (self,), "exp", backward)

    def log(self):
        out_data = np.log(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._result(out_data, (self,), "log", backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / np.maximum(out_data, 1e-12))

        return Tensor._result(out_data, (self,), "sqrt", backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data ** 2))

        return Tensor._result(out_data, (self,), "tanh", backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._result(out_data, (self,), "sigmoid", backward)

    def relu(self):
        mask = self.data > 0

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._result(self.data * mask, (self,), "relu", backward)

    def leaky_relu(self, negative_slope: float = 0.2):
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * scale)

        return Tensor._result(self.data * scale, (self,), "leaky_relu", backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * sign)

        return Tensor._result(np.abs(self.data), (self,), "abs", backward)

    def clip(self, low: float, high: float):
        mask = (self.data > low) & (self.data < high)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._result(np.clip(self.data, low, high), (self,), "clip", backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._result(out_data, (self,), "sum", backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / max(count, 1))

    def max(self, axis=None, keepdims: bool = False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            g = np.asarray(g)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            # Split gradient evenly between ties for well-defined adjoints.
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(g * mask / np.maximum(denom, 1.0))

        return Tensor._result(out_data, (self,), "max", backward)

    def min(self, axis=None, keepdims: bool = False):
        return -(-self).max(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._result(out_data, (self,), "reshape", backward)

    def flatten(self):
        return self.reshape(-1)

    def transpose(self, axes=None):
        out_data = self.data.transpose(axes)
        if axes is None:
            inv = None
        else:
            inv = tuple(np.argsort(axes))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inv))

        return Tensor._result(out_data, (self,), "transpose", backward)

    @property
    def T(self):
        return self.transpose()

    def expand_dims(self, axis: int):
        out_data = np.expand_dims(self.data, axis)

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.squeeze(g, axis=axis))

        return Tensor._result(out_data, (self,), "expand_dims", backward)

    def squeeze(self, axis=None):
        out_data = np.squeeze(self.data, axis=axis)
        original = self.data.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(original))

        return Tensor._result(out_data, (self,), "squeeze", backward)

    def __getitem__(self, index):
        out_data = self.data[index]

        def backward(g):
            if self.requires_grad:
                self._accumulate(_scatter_adjoint(self.data, index, g))

        return Tensor._result(out_data, (self,), "getitem", backward)


def _released_backward(g) -> None:
    """Adjoint left on a node whose graph ``backward()`` already freed."""
    raise RuntimeError(
        "backward() through a graph that has already been freed: "
        "backward() releases each node once its adjoint has run, so run "
        "a fresh forward pass before differentiating again")


def as_tensor(value) -> Tensor:
    """Coerce ``value`` (Tensor, ndarray, scalar, list) to a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is an int, a slice or a tuple of these."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items)


def _scatter_adjoint(target_data: np.ndarray, index, g: np.ndarray) -> np.ndarray:
    """Scatter-add ``g`` back onto zeros of ``target_data``'s shape.

    The adjoint of ``x[index]`` / :func:`gather`.  The index kind picks
    the path; all three are bit-identical to ``np.add.at`` over zeros:

    * a 1-D integer array goes through the ``scatter_add`` op
      (:mod:`repro.nn.ops`), whose kernel handles repeated rows;
    * a basic index (int, slice, or a tuple of these) or a boolean mask
      selects every element at most once, so ``full[index] += g`` is the
      exact sum and skips ``np.add.at``'s per-element loop;
    * anything else (multi-dimensional or mixed fancy indexing) may repeat
      elements and keeps ``np.add.at``.
    """
    if (isinstance(index, np.ndarray) and index.ndim == 1
            and index.dtype.kind in "iu"):
        from .ops import scatter_add

        return scatter_add(g, index, target_data.shape[0])
    full = np.zeros_like(target_data)
    if _is_basic_index(index) or (isinstance(index, np.ndarray)
                                  and index.dtype == np.bool_):
        full[index] += g
    else:
        np.add.at(full, index, g)
    return full


# ----------------------------------------------------------------------
# multi-input / structural operations
# ----------------------------------------------------------------------
def concatenate(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with exact split adjoints."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return Tensor._result(out_data, tuple(tensors), "concat", backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        slabs = np.split(g, len(tensors), axis=axis)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._result(out_data, tuple(tensors), "stack", backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean ndarray."""
    a, b = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.where(condition, g, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(condition, 0.0, g))

    return Tensor._result(out_data, (a, b), "where", backward)


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Row-gather ``x[index]``; the adjoint is a scatter-add.

    This is the core primitive of message passing: source node features are
    gathered along ``edge_index[0]`` before aggregation.  Registered as the
    ``gather`` op in :mod:`repro.nn.ops`.
    """
    index = np.asarray(index, dtype=np.int64)
    out_data = x.data[index]

    def backward(g):
        if x.requires_grad:
            x._accumulate(_scatter_adjoint(x.data, index, g))

    return Tensor._result(out_data, (x,), "gather", backward)


def _add_at_scatter(g, index: np.ndarray, num_rows: int) -> np.ndarray:
    """``np.add.at`` scatter: ``out[index[i]] += g[i]`` over zeros.

    The fallback of :func:`repro.nn.compiled.kernels.scatter_rows` for
    the layouts its C and plan kernels reject; duplicate indices
    accumulate in appearance order, as in those kernels.
    """
    g = np.asarray(g)
    if g.dtype.kind != "f":
        g = g.astype(active_dtype())
    index = np.asarray(index, dtype=np.int64)
    out = workspace_zeros((num_rows,) + g.shape[index.ndim:], g.dtype)
    np.add.at(out, index, g)
    return out
