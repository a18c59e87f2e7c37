"""OpRegistry mechanics + the public-surface dedupe contract.

Satellite of the registry refactor: ``repro.nn.tensor`` and
``repro.nn.segment`` used to each carry their own ``segment_*`` public
functions; both module paths must now resolve to the *identical*
dispatcher object exported by ``repro.nn.ops`` (via PEP 562 module
``__getattr__`` re-exports), so there is exactly one public entry point
per op.  The rest of the file unit-tests the registry container itself
on fresh instances — registration validation, fallback resolution and
dispatcher caching — independently of the real op database.
"""

import pytest

import repro.nn as nn
import repro.nn.ops as ops_mod
import repro.nn.segment as segment_mod
import repro.nn.tensor as tensor_mod
from repro.nn.ops import OP_REGISTRY, OpRegistry, use_backend


class TestImportPathIdentity:
    """Both legacy import paths must return the identical function."""

    @pytest.mark.parametrize("name", [
        "segment_sum", "segment_mean", "segment_max", "segment_softmax",
        "gather_segments", "scatter_add", "use_backend", "active_backend",
    ])
    def test_segment_path_is_the_ops_object(self, name):
        assert getattr(segment_mod, name) is getattr(ops_mod, name)
        if hasattr(nn, name):
            assert getattr(nn, name) is getattr(ops_mod, name)

    @pytest.mark.parametrize("name", [
        "segment_sum", "segment_mean", "segment_max", "gather",
    ])
    def test_tensor_path_is_the_ops_object(self, name):
        assert getattr(tensor_mod, name) is getattr(ops_mod, name)
        assert getattr(nn, name) is getattr(ops_mod, name)

    def test_unknown_forwarded_attribute_raises(self):
        with pytest.raises(AttributeError):
            segment_mod.not_an_op
        with pytest.raises(AttributeError):
            tensor_mod.not_an_op

    def test_dispatchers_keep_introspection_metadata(self):
        assert nn.segment_sum.__name__ == "segment_sum"
        assert nn.segment_sum.__doc__  # lifted from the preferred impl
        assert callable(nn.segment_sum.__wrapped__)


def _fresh_registry():
    reg = OpRegistry()
    reg.register_backend("ref", description="reference")
    reg.register_backend("fast", fallback="ref")
    reg.register_backend("jit", fallback="fast")
    return reg


def _samples(dtype):
    return []


class TestRegistration:
    def test_backend_redeclaration_rejected(self):
        reg = _fresh_registry()
        with pytest.raises(ValueError, match="already registered"):
            reg.register_backend("ref")

    def test_undeclared_fallback_rejected(self):
        reg = OpRegistry()
        with pytest.raises(ValueError, match="undeclared"):
            reg.register_backend("fast", fallback="ref")

    def test_duplicate_op_rejected(self):
        reg = _fresh_registry()
        reg.register("twice", backends={"ref": abs, "fast": abs},
                     adjoint="a", samples=_samples)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("twice", backends={"ref": abs, "fast": abs},
                         adjoint="a", samples=_samples)

    def test_undeclared_backend_key_rejected(self):
        reg = _fresh_registry()
        with pytest.raises(ValueError, match="undeclared backend"):
            reg.register("op", backends={"cuda": abs},
                         adjoint="a", samples=_samples)

    def test_empty_backends_rejected(self):
        reg = _fresh_registry()
        with pytest.raises(ValueError, match="no backends"):
            reg.register("op", backends={}, adjoint="a", samples=_samples)

    def test_single_backend_requires_waiver(self):
        reg = _fresh_registry()
        with pytest.raises(ValueError, match="waiver"):
            reg.register("op", backends={"ref": abs},
                         adjoint="a", samples=_samples)
        reg.register("op", backends={"ref": abs}, adjoint="a",
                     samples=_samples, waiver="reference-only")
        assert reg.get("op").waiver == "reference-only"

    def test_empty_adjoint_rejected(self):
        reg = _fresh_registry()
        with pytest.raises(ValueError, match="adjoint"):
            reg.register("op", backends={"ref": abs, "fast": abs},
                         adjoint="", samples=_samples)

    def test_non_callable_samples_rejected(self):
        reg = _fresh_registry()
        with pytest.raises(ValueError, match="samples"):
            reg.register("op", backends={"ref": abs, "fast": abs},
                         adjoint="a", samples=None)


class TestResolution:
    def test_direct_and_fallback_resolution(self):
        reg = _fresh_registry()

        def ref_impl(x):
            return x

        def fast_impl(x):
            return x

        reg.register("op", backends={"ref": ref_impl, "fast": fast_impl},
                     adjoint="a", samples=_samples)
        assert reg.resolve("op", "ref") is ref_impl
        assert reg.resolve("op", "fast") is fast_impl
        assert reg.resolve("op", "jit") is fast_impl  # jit -> fast

    def test_fallback_chain_bottoms_out(self):
        reg = _fresh_registry()
        reg.register("op", backends={"ref": abs}, adjoint="a",
                     samples=_samples, waiver="reference-only")
        assert reg.resolve("op", "jit") is abs  # jit -> fast -> ref

    def test_unknown_backend_and_op_raise(self):
        reg = _fresh_registry()
        reg.register("op", backends={"ref": abs}, adjoint="a",
                     samples=_samples, waiver="w")
        with pytest.raises(ValueError, match="unknown backend"):
            reg.resolve("op", "cuda")
        with pytest.raises(KeyError):
            reg.get("nope")

    def test_backend_listings(self):
        reg = _fresh_registry()
        reg.register("op", backends={"fast": abs}, adjoint="a",
                     samples=_samples, waiver="w")
        assert reg.declared_backends() == ("ref", "fast", "jit")
        assert reg.backends() == ("fast",)  # only backends with direct impls

    def test_dispatcher_is_cached(self):
        reg = _fresh_registry()
        reg.register("op", backends={"ref": abs, "fast": abs},
                     adjoint="a", samples=_samples)
        assert reg.dispatcher("op") is reg.dispatcher("op")


class TestActiveBackendPlumbing:
    def test_use_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown backend"):
            use_backend("cuda")

    def test_compiled_is_not_a_backend_name(self):
        # The C kernels run inside the reduceat impls; there is no
        # separate backend to select.
        assert OP_REGISTRY.declared_backends() == ("legacy", "reduceat")
        with pytest.raises(ValueError, match="unknown backend"):
            use_backend("compiled")

    def test_nesting_restores_previous_backend(self):
        assert nn.active_backend() == "reduceat"
        with use_backend("legacy"):
            assert nn.active_backend() == "legacy"
            with use_backend("reduceat"):
                assert nn.active_backend() == "reduceat"
            assert nn.active_backend() == "legacy"
        assert nn.active_backend() == "reduceat"

    def test_registry_is_exported_from_nn(self):
        assert nn.OP_REGISTRY is OP_REGISTRY
        assert nn.OpRegistry is OpRegistry
