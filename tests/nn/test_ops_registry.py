"""The op registry as the tests import it, and the reference leg.

Each registered op is one plain function: ``repro.nn.segment_sum``,
``repro.nn.segment.segment_sum`` and ``OP_REGISTRY.get("segment_sum")
.impl`` are the same object.  These tests check the table against the
code it describes — every public tape-building op is registered, has an
oracle in ``tests/oracles.py`` and lives where the REP004 autograd lint
looks — and that ``kernel_leg("legacy")`` really swaps every op the
models call for its oracle.
"""

import collections
import inspect
import sys

import numpy as np
import pytest

import repro.nn as nn
import repro.nn.ops as ops_mod
import repro.nn.segment as segment_mod
import repro.nn.tensor as tensor_mod
from repro.devtools.config import default_config
from repro.gnn import GNNEncoder
from repro.gnn.fusion import LSTMFusion
from repro.gnn.readout import Set2SetReadout
from repro.nn.ops import OP_REGISTRY, OpRegistry
from tests.conftest import kernel_leg
from tests.oracles import ORACLES

#: Public functions of the kernel modules that build no tape node.
NOT_OPS = frozenset({"as_plan", "active_backend"})


class TestImportPathIdentity:
    """Every import path of an op returns the one registered function."""

    @pytest.mark.parametrize("name", [
        "segment_sum", "segment_mean", "segment_max", "segment_softmax",
        "gather_segments", "gin_message",
    ])
    def test_segment_path_is_the_ops_object(self, name):
        impl = OP_REGISTRY.get(name).impl
        assert getattr(segment_mod, name) is impl
        assert getattr(ops_mod, name) is impl
        assert getattr(nn, name) is impl

    @pytest.mark.parametrize("name", ["gather"])
    def test_tensor_path_is_the_ops_object(self, name):
        assert getattr(tensor_mod, name) is getattr(ops_mod, name)
        assert getattr(nn, name) is getattr(ops_mod, name)

    def test_dispatchers_keep_introspection_metadata(self):
        assert nn.segment_sum.__name__ == "segment_sum"
        assert nn.segment_sum.__doc__



class TestRegistryCompleteness:
    def test_every_public_tape_op_is_registered(self):
        impls = {id(OP_REGISTRY.get(name).impl) for name in OP_REGISTRY.ops()}
        for module in (segment_mod, ops_mod, nn):
            for name in module.__all__:
                value = getattr(module, name)
                if (inspect.isfunction(value) and name not in NOT_OPS
                        and value.__module__ in (segment_mod.__name__,
                                                 ops_mod.__name__)):
                    assert id(value) in impls, (module.__name__, name)

    def test_every_op_has_an_oracle_and_is_swept(self):
        assert set(ORACLES) == set(OP_REGISTRY.ops())
        for name in OP_REGISTRY.ops():
            entry = OP_REGISTRY.get(name)
            assert callable(ORACLES[name]), name
            # The gradcheck sweep (test_ops_gradients) checks something.
            assert any(s.data.size for s in entry.samples(np.float64)), name

    def test_differentiable_impls_live_in_autograd_checked_modules(self):
        checked = default_config().autograd_modules
        for name in OP_REGISTRY.ops():
            entry = OP_REGISTRY.get(name)
            if not entry.differentiable:
                continue
            module = entry.impl.__module__
            assert module.startswith("repro."), (name, module)
            rel = module[len("repro."):].replace(".", "/") + ".py"
            assert rel in checked, (name, rel)
            assert entry.impl.__name__ in vars(sys.modules[module]), name


def _samples(dtype):
    return []


class TestRegistration:
    def test_duplicate_op_rejected(self):
        reg = OpRegistry()
        reg.register("twice", abs, adjoint="a", samples=_samples)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("twice", abs, adjoint="a", samples=_samples)

    def test_non_callable_impl_rejected(self):
        reg = OpRegistry()
        with pytest.raises(ValueError, match="callable impl"):
            reg.register("op", None, adjoint="a", samples=_samples)

    def test_empty_adjoint_rejected(self):
        reg = OpRegistry()
        with pytest.raises(ValueError, match="adjoint"):
            reg.register("op", abs, adjoint="", samples=_samples)

    def test_non_callable_samples_rejected(self):
        reg = OpRegistry()
        with pytest.raises(ValueError, match="samples"):
            reg.register("op", abs, adjoint="a", samples=None)


class TestResolution:
    def test_dispatcher_is_cached(self):
        reg = OpRegistry()
        reg.register("op", abs, adjoint="a", samples=_samples)
        assert reg.dispatcher("op") is reg.dispatcher("op") is abs
        assert reg.get("op").impl is abs

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            OpRegistry().get("nope")


class TestActiveBackendPlumbing:
    """What perfbench's layer table reads from the registry."""

    def test_registry_is_exported_from_nn(self):
        assert nn.OP_REGISTRY is OP_REGISTRY
        assert nn.OpRegistry is OpRegistry

    def test_dispatchers_are_the_public_functions(self):
        # The layer table wraps every binding of each dispatcher(op), so
        # it must be the public function itself.
        for name in OP_REGISTRY.ops():
            assert OP_REGISTRY.dispatcher(name) is OP_REGISTRY.get(name).impl
        assert isinstance(ops_mod.active_backend(), str)


def _model_step(conv_type, batch):
    """One grad-mode forward + backward: encoder -> LSTM fusion -> Set2Set."""
    rng = np.random.default_rng(0)
    encoder = GNNEncoder(conv_type, num_layers=2, emb_dim=8, dropout=0.0,
                         seed=0)
    fusion = LSTMFusion(2, 8, rng)
    readout = Set2SetReadout(8, rng)
    out = readout(fusion(encoder(batch)), batch.node_plan(), batch.num_graphs)
    out.sum().backward()


def _profiled(run, codes):
    """Run ``run()``; return ``(top, every)``: Counters over the op names
    of ``codes`` (code object -> name) whose functions ran outside any
    other op's frame, and at all."""
    top, every, active = collections.Counter(), collections.Counter(), []

    def profile(frame, event, arg):
        name = codes.get(frame.f_code)
        if name is None:
            return
        if event == "call":
            every[name] += 1
            if not active:
                top[name] += 1
            active.append(frame)
        elif event == "return" and active and active[-1] is frame:
            active.pop()

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return top, every


class TestReferenceLeg:
    """``kernel_leg("legacy")`` must run each op's oracle wherever the
    models bind the op; one missed binding would quietly turn the tier-2
    differential suite into a fast-vs-fast comparison."""

    @pytest.mark.parametrize("conv_type", ["gin", "gat", "sage"])
    def test_every_called_op_goes_through_its_oracle(self, conv_type, batch,
                                                     monkeypatch):
        impls = {name: OP_REGISTRY.get(name).impl for name in OP_REGISTRY.ops()}
        codes = {impl.__code__: name for name, impl in impls.items()}
        fast_calls, _ = _profiled(lambda: _model_step(conv_type, batch), codes)
        assert {"gather", "scatter_add", "lstm_scan", "linear", "batch_norm",
                "segment_softmax", "gather_segments"} <= set(fast_calls)

        distinct = {impl.__code__: name for name, impl in impls.items()
                    if ORACLES[name] is not impl}
        oracle_calls = collections.Counter()

        def counting(name, oracle):
            def call(*args, **kwargs):
                oracle_calls[name] += 1
                return oracle(*args, **kwargs)
            return call

        for name, oracle in list(ORACLES.items()):
            monkeypatch.setitem(ORACLES, name, counting(name, oracle))
        impl_ids = {id(impl) for impl in impls.values()}
        bindings = [(module, attr, value) for module in list(sys.modules.values())
                    if module is not None
                    for attr, value in list(vars(module).items())
                    if id(value) in impl_ids]

        def reference_step():
            with kernel_leg("legacy"):
                _model_step(conv_type, batch)

        _, fast_in_reference = _profiled(reference_step, distinct)
        assert not fast_in_reference
        missed = set(fast_calls) - set(oracle_calls)
        assert not missed, missed

        # Leaving the leg restores every binding to the registered impl.
        for module, attr, value in bindings:
            assert getattr(module, attr) is value, (module.__name__, attr)
        for name, impl in impls.items():
            if hasattr(nn, name):
                assert getattr(nn, name) is impl, name
