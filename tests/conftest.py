"""Shared fixtures: tiny deterministic datasets, encoders, and RNGs."""

import contextlib

import numpy as np
import pytest

from repro.gnn import GNNEncoder
from repro.graph import Batch, MoleculeGenerator, load_dataset
from repro.nn import use_backend
from repro.nn.compiled import build as compiled_build

#: The kernel legs the parity suites compare against ``legacy``:
#: ``reduceat`` is the fast backend with the C kernel library forced off
#: (its numpy kernels), ``compiled`` the same backend running the C
#: kernels — present only where a C compiler is discoverable.
KERNEL_LEGS = ("legacy", "reduceat") + (
    ("compiled",) if compiled_build.find_compiler() is not None else ())


@contextlib.contextmanager
def kernel_library(enabled: bool):
    """Run the body with the C kernel library as built, or forced off.

    Forced off, every kernel sees ``build.load()`` return None — exactly
    what a machine without a C compiler gives — and takes its numpy path.
    """
    if enabled:
        yield
        return
    load = compiled_build.load
    compiled_build.load = lambda: None
    try:
        yield
    finally:
        compiled_build.load = load


@contextlib.contextmanager
def kernel_leg(leg: str):
    """Select one of :data:`KERNEL_LEGS` for the body."""
    backend = "legacy" if leg == "legacy" else "reduceat"
    with use_backend(backend), kernel_library(leg != "reduceat"):
        yield


def sample_tensors(sample):
    """Fresh tensors for one registry sample: ``(x, args, tracked)``.

    ``x`` wraps a copy of the payload and every ``grad_args`` position of
    ``args`` a copy of its array, all grad-tracked, in the active dtype;
    ``tracked`` lists them, payload first, for reading gradients back.
    """
    from repro.nn import Tensor

    x = Tensor(sample.data.copy(), requires_grad=True)
    args = list(sample.args)
    tracked = [x]
    for position in sample.grad_args:
        args[position] = Tensor(args[position].copy(), requires_grad=True)
        tracked.append(args[position])
    return x, args, tracked


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def molecules():
    """A reusable pool of 30 small molecules."""
    return MoleculeGenerator(num_scaffolds=8, seed=3).generate_many(30)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small labeled classification dataset (bbbp shape)."""
    return load_dataset("bbbp", size=60)


@pytest.fixture(scope="session")
def tiny_regression_dataset():
    return load_dataset("esol", size=60)


@pytest.fixture
def batch(molecules):
    return Batch(molecules[:6])


@pytest.fixture
def encoder():
    return GNNEncoder(conv_type="gin", num_layers=3, emb_dim=16, dropout=0.0, seed=0)


def gradcheck(fn, x_data, eps=1e-6, tol=1e-5):
    """Finite-difference gradient check for a scalar-valued tensor function."""
    from repro.nn import Tensor

    x_data = np.asarray(x_data, dtype=np.float64)
    x = Tensor(x_data, requires_grad=True)
    fn(x).backward()
    analytic = x.grad.copy()
    numeric = np.zeros_like(x_data)
    flat = x_data.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_hi = float(fn(Tensor(x_data)).data.sum())
        flat[i] = orig - eps
        f_lo = float(fn(Tensor(x_data)).data.sum())
        flat[i] = orig
        numeric.ravel()[i] = (f_hi - f_lo) / (2 * eps)
    err = np.abs(analytic - numeric).max()
    assert err < tol, f"gradcheck failed: max abs err {err:.3e}"
    return err
