"""Shared fixtures: tiny deterministic datasets, encoders, and RNGs."""

import contextlib
import os
import sys

import numpy as np
import pytest

from repro.gnn import GNNEncoder
from repro.graph import Batch, MoleculeGenerator, load_dataset
from repro.nn.compiled import build as compiled_build
from repro.nn.ops import OP_REGISTRY
from tests.oracles import ORACLES

#: The kernel legs the parity suites compare: ``legacy`` runs every op's
#: reference from ``tests/oracles.py``, ``reduceat`` the registered ops
#: with the C kernel library forced off (their numpy kernels), and
#: ``compiled`` the same ops running the C kernels — present only where
#: a C compiler is discoverable.
KERNEL_LEGS = ("legacy", "reduceat") + (
    ("compiled",) if compiled_build.find_compiler() is not None else ())

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


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
def oracles_installed():
    """Run the body with every registered op replaced by its oracle.

    Each binding of an op's function object in a loaded ``repro``
    module or test module (``from repro.nn import segment_sum`` copies
    the object into the importer) is rebound to
    ``tests.oracles.ORACLES``'s entry for it, and restored afterwards.
    """
    swap = {}
    for name, oracle in ORACLES.items():
        impl = OP_REGISTRY.get(name).impl
        if oracle is not impl:
            swap[id(impl)] = oracle
    patches = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
                mod_name.split(".")[0] == "repro"
                or (getattr(module, "__file__", None) or "").startswith(
                    TESTS_DIR)):
            continue
        for attr, value in list(vars(module).items()):
            oracle = swap.get(id(value))
            if oracle is not None:
                patches.append((module, attr, value))
                setattr(module, attr, oracle)
    try:
        yield
    finally:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)


@contextlib.contextmanager
def kernel_leg(leg: str):
    """Select one of :data:`KERNEL_LEGS` for the body."""
    oracles = oracles_installed() if leg == "legacy" else contextlib.nullcontext()
    with oracles, kernel_library(leg != "reduceat"):
        yield


def leg_op(leg: str, name: str):
    """The function op ``name`` runs as on kernel leg ``leg``."""
    return ORACLES[name] if leg == "legacy" else OP_REGISTRY.get(name).impl


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
