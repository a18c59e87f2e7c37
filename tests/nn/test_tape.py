"""Tests for the lean autograd tape.

``Tensor.backward`` frees the graph as it runs, and ``_accumulate`` keeps
an interior node's incoming C-contiguous gradient without copying it.
These tests pin the three things that must survive that:

* leaf gradients stay private and writable, so in-place updates
  (``clip_grad_norm``'s ``g *= scale``, the optimizers) touch one leaf;
* the freed graph is really gone, and differentiating it again raises;
* training is bit-identical to the old always-copy, never-release tape,
  checked against that tape patched back in as the reference.
"""

import gc
import weakref

import numpy as np
import pytest

import repro.nn.tensor as tensor_mod
from repro.core import S2PGNNFineTuner, SearchConfig
from repro.core.api import FineTuneConfig
from repro.gnn import GNNEncoder
from repro.nn import Parameter, Tensor, clip_grad_norm
from repro.nn.tensor import _scatter_adjoint


# ----------------------------------------------------------------------
# the reference tape: every first gradient copied, no node ever released
# ----------------------------------------------------------------------
def _reference_accumulate(self, grad):
    grad = tensor_mod._unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                                   self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad = self.grad + grad


def _reference_backward(self, grad=None):
    topo, visited = [], set()
    post = [(self, False)]
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
    if grad is None:
        grad = np.ones_like(self.data)
    self._accumulate(grad)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _reference_scatter_adjoint(target_data, index, g):
    if (isinstance(index, np.ndarray) and index.ndim == 1
            and index.dtype.kind in "iu"):
        from repro.nn.ops import scatter_add

        return scatter_add(g, index, target_data.shape[0])
    full = np.zeros_like(target_data)
    np.add.at(full, index, g)
    return full


def _install_reference_tape(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(Tensor, "_accumulate", _reference_accumulate)
    mp.setattr(Tensor, "backward", _reference_backward)
    mp.setattr(tensor_mod, "_scatter_adjoint", _reference_scatter_adjoint)


@pytest.fixture
def reference_tape(monkeypatch):
    """Patch the reference tape in for the duration of a test."""
    _install_reference_tape(monkeypatch)


# ----------------------------------------------------------------------
# leaf gradients
# ----------------------------------------------------------------------
class TestLeafGradients:
    def test_add_gives_each_parent_its_own_grad(self):
        a = Parameter(np.array([1.0, 2.0, 3.0]))
        b = Parameter(np.array([4.0, 5.0, 6.0]))
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        a.grad *= 2.0
        assert np.array_equal(b.grad, np.ones(3))

    def test_broadcast_view_is_copied_into_a_writable_grad(self):
        # sum's adjoint hands over a read-only np.broadcast_to view.
        p = Parameter(np.arange(6.0).reshape(2, 3))
        p.sum().backward()
        assert p.grad.flags.writeable
        assert p.grad.flags.owndata
        p.grad *= 0.5
        assert np.array_equal(p.grad, np.full((2, 3), 0.5))

    def test_clip_scales_each_leaf_exactly_once(self):
        # a and b receive the very same adjoint array from __add__; if
        # their grads aliased it, the in-place clip would scale it twice.
        a = Parameter(np.array([3.0, 0.0]))
        b = Parameter(np.array([0.0, 4.0]))
        ((a + b) * Tensor(np.array([3.0, 4.0]))).sum().backward()
        assert np.array_equal(a.grad, [3.0, 4.0])
        assert np.array_equal(b.grad, [3.0, 4.0])
        norm = clip_grad_norm([a, b], max_norm=1.0)
        scale = 1.0 / norm
        expected = np.array([3.0, 4.0]) * scale
        assert np.array_equal(a.grad, expected)
        assert np.array_equal(b.grad, expected)


# ----------------------------------------------------------------------
# the released graph
# ----------------------------------------------------------------------
def _small_graph():
    w = Parameter(np.array([[0.5, -1.0], [2.0, 0.25]]))
    x = Tensor(np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.5]]))
    hidden = (x @ w).tanh()
    loss = (hidden * hidden).mean()
    return w, hidden, loss


class TestReleasedGraph:
    def test_interior_grads_are_dropped_leaf_and_root_kept(self):
        w, hidden, loss = _small_graph()
        loss.backward()
        assert hidden.grad is None
        assert w.grad is not None and w.grad.shape == (2, 2)
        assert np.array_equal(loss.grad, np.ones(()))

    def test_second_backward_raises(self):
        _, _, loss = _small_graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()

    def test_backward_through_a_freed_interior_node_raises(self):
        w, hidden, loss = _small_graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            (hidden * 2.0).sum().backward()

    def test_interior_activation_is_freed(self):
        w, hidden, loss = _small_graph()
        activation = weakref.ref(hidden.data)
        del hidden
        loss.backward()
        gc.collect()
        # The caller still holds ``loss``, but nothing reaches the graph.
        assert activation() is None
        assert loss._prev == ()
        del loss
        assert activation() is None

    def test_reference_tape_keeps_the_activation_alive(self, reference_tape):
        # Control for the test above: the old tape held the graph until
        # the caller dropped ``loss``.
        w, hidden, loss = _small_graph()
        activation = weakref.ref(hidden.data)
        del hidden
        loss.backward()
        gc.collect()
        assert activation() is not None
        del loss
        gc.collect()
        assert activation() is None

    def test_explicit_seed_is_not_aliased(self):
        x = Parameter(np.array([1.0, 2.0]))
        out = x * 3.0
        seed = np.array([1.0, 1.0])
        out.backward(seed)
        seed[:] = 7.0
        assert np.array_equal(out.grad, [1.0, 1.0])
        assert np.array_equal(x.grad, [3.0, 3.0])


# ----------------------------------------------------------------------
# _scatter_adjoint fast paths vs the np.add.at reference
# ----------------------------------------------------------------------
def _add_at_reference(target, index, g):
    full = np.zeros_like(target)
    np.add.at(full, index, g)
    return full


_TARGET = np.zeros((5, 4, 3))
_INDEXES = {
    "int": 2,
    "negative int": -1,
    "numpy int": np.int64(3),
    "slice": slice(1, 4),
    "stepped slice": slice(4, None, -2),
    "tuple": (slice(None), 1),
    "tuple of ints": (-2, 0, 1),
    "mixed tuple": (slice(0, 5, 2), slice(None), -1),
    "empty tuple": (),
    "row mask": np.array([True, False, True, True, False]),
    "full mask": np.arange(60).reshape(5, 4, 3) % 3 == 0,
}


class _NumpyWithoutAddAt:
    """``numpy`` as seen by ``repro.nn.tensor``, minus ``np.add.at``."""

    class _Add:
        def at(self, *args, **kwargs):
            raise AssertionError("np.add.at used for a basic index or mask")

    add = _Add()

    def __getattr__(self, name):
        return getattr(np, name)


class TestScatterAdjointParity:
    @pytest.mark.parametrize("name", sorted(_INDEXES))
    def test_bitwise_equal_to_add_at(self, name):
        index = _INDEXES[name]
        rng = np.random.default_rng(0)
        shape = _TARGET[index].shape
        g = rng.standard_normal(shape)
        # Signed zeros: 0.0 + -0.0 must come out +0.0 on both paths.
        g.ravel()[::3] = -0.0
        fast = _scatter_adjoint(_TARGET, index, g)
        ref = _add_at_reference(_TARGET, index, g)
        assert fast.shape == ref.shape
        assert fast.tobytes() == ref.tobytes()
        assert np.array_equal(np.signbit(fast), np.signbit(ref))

    @pytest.mark.parametrize("name", sorted(_INDEXES))
    def test_basic_paths_skip_add_at(self, name, monkeypatch):
        index = _INDEXES[name]
        g = np.ones(_TARGET[index].shape)
        # A ufunc's attributes cannot be patched, so the module's ``np``
        # is swapped for one whose ``add.at`` fails.
        monkeypatch.setattr(tensor_mod, "np", _NumpyWithoutAddAt())
        out = _scatter_adjoint(_TARGET, index, g)
        assert out.shape == _TARGET.shape

    def test_fancy_index_with_repeats_matches_add_at(self):
        rows = np.array([[0, 0], [4, 0]])
        g = np.arange(48.0).reshape(2, 2, 4, 3)
        fast = _scatter_adjoint(_TARGET, rows, g)
        assert fast.tobytes() == _add_at_reference(_TARGET, rows, g).tobytes()

    def test_integer_array_dispatches_to_scatter_add(self, monkeypatch):
        import repro.nn.ops as ops

        calls = []
        real = ops.scatter_add

        def recording(g, index, num_rows):
            calls.append(index)
            return real(g, index, num_rows)

        monkeypatch.setattr(ops, "scatter_add", recording)
        index = np.array([4, 0, 4, 2])
        g = np.arange(48.0).reshape(4, 4, 3)
        out = _scatter_adjoint(_TARGET, index, g)
        assert len(calls) == 1 and calls[0] is index
        assert out.tobytes() == _add_at_reference(_TARGET, index, g).tobytes()


# ----------------------------------------------------------------------
# end-to-end parity with the reference tape
# ----------------------------------------------------------------------
def _factory():
    # Five layers at width 32 with seeds 2 and 3 route sliced (strided)
    # gradients through interior matmuls: an _accumulate that kept them
    # without compacting drifts by an ulp within the first epoch here.
    return GNNEncoder("gin", num_layers=5, emb_dim=32, dropout=0.0, seed=0)


def _run_twice(dataset) -> list[dict]:
    """Two sequential search + fit runs, recording every backward's loss."""
    losses: list[bytes] = []
    backward = Tensor.backward

    def recording(self, grad=None):
        losses.append(self.data.tobytes())
        return backward(self, grad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tensor, "backward", recording)
        return [_search_and_fit(dataset, seed, losses) for seed in (2, 3)]


def _search_and_fit(dataset, seed: int, losses: list) -> dict:
    losses.clear()
    tuner = S2PGNNFineTuner(
        _factory,
        search_config=SearchConfig(epochs=2, seed=seed),
        finetune_config=FineTuneConfig(epochs=2, patience=2),
        seed=seed,
    )
    spec = tuner.search(dataset)
    result = tuner.fit(dataset, spec=spec)
    return {
        "losses": list(losses),
        "search_history": tuner.search_result_.history,
        "spec": spec,
        "train_losses": result.train_losses,
        "valid_history": result.valid_history,
        "params": {k: v.tobytes() for k, v in tuner.model_.state_dict().items()},
        "logits": tuner.predict(dataset.graphs[:16]).tobytes(),
    }


@pytest.mark.slow
class TestTapeParity:
    @pytest.fixture(scope="class")
    def runs(self, tiny_dataset):
        lean = _run_twice(tiny_dataset)
        with pytest.MonkeyPatch.context() as mp:
            _install_reference_tape(mp)
            reference = _run_twice(tiny_dataset)
        return lean, reference

    @pytest.mark.parametrize("run", [0, 1])
    def test_every_step_loss_bit_identical(self, runs, run):
        lean, reference = runs
        assert len(lean[run]["losses"]) == len(reference[run]["losses"]) > 0
        assert lean[run]["losses"] == reference[run]["losses"]

    @pytest.mark.parametrize("run", [0, 1])
    def test_search_and_finetune_trajectories_bit_identical(self, runs, run):
        lean, reference = runs
        for key in ("search_history", "spec", "train_losses", "valid_history"):
            assert lean[run][key] == reference[run][key], key

    @pytest.mark.parametrize("run", [0, 1])
    def test_parameters_and_predictions_bit_identical(self, runs, run):
        lean, reference = runs
        assert lean[run]["params"] == reference[run]["params"]
        assert lean[run]["logits"] == reference[run]["logits"]
