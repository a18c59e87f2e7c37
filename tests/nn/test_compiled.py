"""The compiled C kernels (``repro.nn.compiled``) inside the fast backend.

The C kernels are the data kernels of the registered fast ops.  Four
contracts:

* **parity, library loaded** — with the kernel library built, every
  C-backed op (the segment family, ``scatter_add``, ``lstm_scan``,
  ``gin_message``) is bit-identical to the same op with the library
  forced off and to its ``tests/oracles.py`` reference, in float64 and
  float32, forward and every gradient, on every sample layout
  (including the long-segment one); a spy on the loaded library proves
  the C symbols actually ran;
* **no-compiler degradation** — with compiler discovery stubbed out,
  every op stays bit-identical to ``legacy``, ``compiled_status()``
  reports ``unavailable``, and *nothing* is written to the build cache;
* **build manager** — first ``load()`` compiles exactly one shared
  object (the float64 library) into the cache directory, a process that
  runs only float64 kernels never builds the float32 one, the first
  float32 kernel adds exactly one more, and a reset + reload of each
  dtype is a disk-cache hit;
* **surfacing** — ``InferenceService.stats()`` and the CLI
  ``backend-info`` target expose the build status (and the CLI the one
  implementation behind each op).
"""

import collections
import os

import numpy as np
import pytest

from repro.gnn import GNNEncoder
from repro.nn import (
    LSTM,
    Tensor,
    no_grad,
    use_dtype,
)
from repro.nn.compiled import build, compiled_status
from repro.nn.compiled import kernels as _kernels
from repro.nn.ops import OP_REGISTRY
from repro.serve import InferenceService
from tests.conftest import kernel_leg, leg_op, sample_tensors
from tests.oracles import lstm_reference, lstm_scan_reference

HAVE_CC = build.find_compiler() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC,
                              reason="no C compiler discovered")

#: Ops that run a C kernel when the library is loaded.
C_BACKED_OPS = ("segment_sum", "segment_mean", "segment_max",
                "segment_softmax", "gather_segments", "scatter_add",
                "lstm_scan", "gin_message")


def _run(op_name, leg, sample):
    """Forward (+ gradients of the sum w.r.t. the payload and every grad
    arg, for differentiable ops) of one sample on one kernel leg; plain
    arrays out, grads None otherwise."""
    dispatch = leg_op(leg, op_name)
    entry = OP_REGISTRY.get(op_name)
    with kernel_leg(leg):
        if not entry.differentiable:
            return np.asarray(dispatch(sample.data.copy(), *sample.args)), None
        x, args, tracked = sample_tensors(sample)
        out = dispatch(x, *args)
        out.backward(np.ones_like(out.data))
    return out.data, [t.grad for t in tracked]


def _same(got, want):
    """Bitwise equality of two arrays or two gradient lists."""
    if want is None or isinstance(want, np.ndarray):
        return (got is None and want is None) or np.array_equal(got, want)
    return len(got) == len(want) and all(
        np.array_equal(a, b) for a, b in zip(got, want))


def _run_forward(op_name, leg, sample):
    """Forward only of one sample on one kernel leg; plain array out."""
    dispatch = leg_op(leg, op_name)
    with kernel_leg(leg):
        if not OP_REGISTRY.get(op_name).differentiable:
            return np.asarray(dispatch(sample.data.copy(), *sample.args))
        return dispatch(Tensor(sample.data.copy()), *sample.args).data


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """Compiler discovery stubbed out + a private (empty) build cache."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    # ``disabled`` (explicit env opt-out) is a distinct status state;
    # this fixture models a machine with no discoverable compiler.
    monkeypatch.delenv("REPRO_COMPILED_DISABLE", raising=False)
    monkeypatch.setenv("REPRO_COMPILED_CACHE", str(cache))
    build.reset()
    yield cache
    build.reset()


class TestNoCompilerDegradation:
    def test_status_reports_unavailable(self, no_compiler):
        status = compiled_status()
        assert status["state"] == "unavailable"
        assert status["compiler"] is None
        assert status["loaded"] is False
        assert status["build_failed"] is False

    def test_load_returns_none(self, no_compiler):
        assert build.load() is None
        assert compiled_status()["attempted"] is True
        assert compiled_status()["state"] == "unavailable"

    def test_every_op_matches_reduceat_bitwise(self, no_compiler):
        # The "compiled" leg leaves the library as the machine has it —
        # here, none — so it must match the forced-off reduceat leg and
        # the legacy reference bit for bit, in both policy dtypes.
        for dtype_name in ("float64", "float32"):
            dtype = np.dtype(dtype_name).type
            for op_name in OP_REGISTRY.ops():
                for sample in OP_REGISTRY.get(op_name).samples(dtype):
                    with use_dtype(dtype_name):
                        out, grad = _run(op_name, "compiled", sample)
                        for reference in ("reduceat", "legacy"):
                            ref, ref_grad = _run(op_name, reference, sample)
                            key = (op_name, reference, dtype_name,
                                   sample.label)
                            assert np.array_equal(out, ref), key
                            assert _same(grad, ref_grad), key
        assert build.load() is None  # nothing was built along the way

    def test_zero_build_cache_writes(self, no_compiler):
        build.load()
        for sample in OP_REGISTRY.get("segment_sum").samples(np.float64):
            _run("segment_sum", "compiled", sample)
        assert not no_compiler.exists() or list(no_compiler.iterdir()) == []


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A private empty build cache; build state reset around the test."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_COMPILED_CACHE", str(cache))
    build.reset()
    yield cache
    build.reset()


@pytest.mark.compiled
@needs_cc
class TestBuildManager:
    def test_first_load_builds_one_shared_object(self, fresh_cache):
        lib = build.load()
        assert lib is not None
        names = sorted(os.listdir(fresh_cache))
        assert len(names) == 1 and names[0].endswith(".so")
        assert names[0].startswith("repro_kernels_")
        status = compiled_status()
        assert status["state"] == "available"
        assert status["loaded"] is True
        assert status["disk_cache_hit"] is False
        assert status["cache_dir"] == str(fresh_cache)

    def test_reset_then_reload_hits_the_disk_cache(self, fresh_cache):
        assert build.load() is not None
        before = sorted(os.listdir(fresh_cache))
        build.reset()
        assert build.load() is not None
        assert compiled_status()["disk_cache_hit"] is True
        assert sorted(os.listdir(fresh_cache)) == before

    def test_status_never_triggers_a_build(self, fresh_cache):
        status = compiled_status()
        assert status["state"] == "available"
        assert status["attempted"] is False
        assert status["libraries"] == {"float64": "not attempted",
                                       "float32": "not attempted"}
        assert not fresh_cache.exists()

    def test_float64_work_builds_only_the_float64_library(self, fresh_cache):
        for op_name in C_BACKED_OPS:
            for sample in OP_REGISTRY.get(op_name).samples(np.float64):
                _run(op_name, "compiled", sample)
        assert len(_shared_objects(fresh_cache)) == 1
        assert compiled_status()["libraries"] == {
            "float64": "built", "float32": "not attempted"}

    def test_first_float32_kernel_adds_one_library(self, fresh_cache,
                                                   monkeypatch):
        sample = OP_REGISTRY.get("segment_sum").samples(np.float64)[0]
        _run("segment_sum", "compiled", sample)
        first = _shared_objects(fresh_cache)
        spies = _spy_on_load(monkeypatch)
        for sample in OP_REGISTRY.get("segment_sum").samples(np.float32):
            with use_dtype("float32"), no_grad():
                _run_forward("segment_sum", "compiled", sample)
        assert len(_shared_objects(fresh_cache)) == 2
        assert set(first) < set(_shared_objects(fresh_cache))
        assert compiled_status()["libraries"] == {"float64": "built",
                                                  "float32": "built"}
        assert list(spies) == ["float32"]
        assert spies["float32"].calls["segment_sum_f32"] > 0
        # Once a dtype is loaded its kernels are looked up without the lock.
        with monkeypatch.context() as patch:
            patch.setattr(build, "_build_lock", _ForbiddenLock())
            for dtype_name in ("float64", "float32"):
                for sample in OP_REGISTRY.get("segment_sum").samples(
                        np.dtype(dtype_name).type):
                    with use_dtype(dtype_name):
                        _run("segment_sum", "compiled", sample)

    def test_reset_then_reload_of_each_dtype_hits_the_disk_cache(
            self, fresh_cache):
        for dtype in (np.float64, np.float32):
            assert build.load(dtype) is not None
        before = _shared_objects(fresh_cache)
        build.reset()
        assert compiled_status()["attempted"] is False
        for dtype in (np.float64, np.float32):
            assert build.load(dtype) is not None
        assert compiled_status()["libraries"] == {"float64": "disk hit",
                                                  "float32": "disk hit"}
        assert _shared_objects(fresh_cache) == before

    def test_a_dtype_without_c_kernels_builds_nothing(self, fresh_cache):
        assert build.load(np.float16) is None
        assert compiled_status()["attempted"] is False
        assert not fresh_cache.exists()


def _shared_objects(cache):
    return sorted(name for name in os.listdir(cache) if name.endswith(".so"))


class _ForbiddenLock:
    """Stands in for ``build._build_lock`` where taking it is a bug."""

    def __enter__(self):
        raise AssertionError("_build_lock taken on a loaded dtype")

    def __exit__(self, *exc):
        return False


class _SpyLibrary:
    """Wraps the loaded kernel library, counting calls per C symbol."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = collections.Counter()

    def __getattr__(self, name):
        kernel = getattr(self._lib, name)

        def call(*args):
            self.calls[name] += 1
            return kernel(*args)

        return call


def _spy_on_load(monkeypatch):
    """Route ``build.load`` through one :class:`_SpyLibrary` per dtype;
    returns the spies, keyed by dtype name as the kernels ask for them."""
    load, spies = build.load, {}

    def spy_load(dtype=np.float64):
        lib = load(dtype)
        if lib is None:
            return None
        name = np.dtype(dtype).name
        if name not in spies:
            spies[name] = _SpyLibrary(lib)
        return spies[name]

    monkeypatch.setattr(build, "load", spy_load)
    return spies


@pytest.mark.compiled
@needs_cc
class TestCompiledKernelParity:
    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    def test_forward_bitwise_vs_reduceat_and_legacy(self, dtype_name):
        # "compiled" = the ops with the library loaded, "reduceat" = the
        # same ops with it forced off (CSR matvec / vertical max / plan
        # scatter / numpy scan), "legacy" = the oracles.
        dtype = np.dtype(dtype_name).type
        labels = set()
        for op_name in C_BACKED_OPS:
            for sample in OP_REGISTRY.get(op_name).samples(dtype):
                labels.add(sample.label)
                with use_dtype(dtype_name), no_grad():
                    out = _run_forward(op_name, "compiled", sample)
                    for reference in ("reduceat", "legacy"):
                        ref = _run_forward(op_name, reference, sample)
                        assert out.dtype == ref.dtype == dtype
                        assert np.array_equal(out, ref), \
                            (op_name, reference, sample.label)
        assert "long_segments" in labels

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    def test_gradients_bitwise_vs_reduceat_and_legacy(self, dtype_name):
        dtype = np.dtype(dtype_name).type
        for op_name in C_BACKED_OPS:
            if not OP_REGISTRY.get(op_name).differentiable:
                continue
            for sample in OP_REGISTRY.get(op_name).samples(dtype):
                with use_dtype(dtype_name):
                    out, grad = _run(op_name, "compiled", sample)
                    for reference in ("reduceat", "legacy"):
                        ref, ref_grad = _run(op_name, reference, sample)
                        assert np.array_equal(out, ref), \
                            (op_name, reference, sample.label)
                        assert _same(grad, ref_grad), \
                            (op_name, reference, sample.label)

    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    def test_c_kernels_are_hit(self, monkeypatch, dtype_name):
        spies = _spy_on_load(monkeypatch)
        suffix = "f64" if dtype_name == "float64" else "f32"
        for op_name in C_BACKED_OPS:
            for sample in OP_REGISTRY.get(op_name).samples(
                    np.dtype(dtype_name).type):
                with use_dtype(dtype_name), no_grad():
                    _run_forward(op_name, "compiled", sample)
        for symbol in ("segment_sum", "segment_max", "scatter_add",
                       "lstm_gates", "lstm_combine", "lstm_output",
                       "gin_message"):
            assert spies[dtype_name].calls[f"{symbol}_{suffix}"] > 0, \
                (symbol, spies[dtype_name].calls)

    def test_lstm_scan_with_state_matches_reference(self):
        entry = OP_REGISTRY.get("lstm_scan")
        for dtype_name in ("float64", "float32"):
            dtype = np.dtype(dtype_name).type
            for sample in entry.samples(dtype):
                with no_grad(), use_dtype(dtype_name):
                    out_c, h_c, c_c = _kernels.lstm_scan(
                        Tensor(sample.data.copy()), *sample.args,
                        return_state=True)
                    out_r, h_r, c_r = lstm_scan_reference(
                        Tensor(sample.data.copy()), *sample.args,
                        return_state=True)
                assert np.array_equal(out_c.data, out_r.data), sample.label
                assert np.array_equal(h_c.data, h_r.data), sample.label
                assert np.array_equal(c_c.data, c_r.data), sample.label

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_lstm_module_scan_matches_tape_forward(self, bidirectional):
        rng = np.random.default_rng(7)
        lstm = LSTM(5, 4, rng, bidirectional=bidirectional)
        steps = [Tensor(rng.normal(size=(3, 5))) for _ in range(4)]
        # The per-gate tape composition is the oracle; the scan serves
        # both grad mode and no_grad and must agree bitwise on every leg.
        tape = [t.data.copy() for t in lstm_reference(lstm, steps)]
        for leg in ("legacy", "reduceat", "compiled"):
            for grad_mode in (False, True):
                with kernel_leg(leg):
                    if grad_mode:
                        scanned = lstm(steps)
                    else:
                        with no_grad():
                            scanned = lstm(steps)
                for got, want in zip(scanned, tape):
                    assert np.array_equal(got.data, want), \
                        (leg, grad_mode, bidirectional)


def _encoder_factory():
    return GNNEncoder("gin", num_layers=2, emb_dim=12, dropout=0.0, seed=0)


class TestSurfacing:
    def test_service_stats_expose_compiled_status(self):
        service = InferenceService(_encoder_factory, num_tasks=3)
        compiled = service.stats()["compiled"]
        assert compiled["state"] in ("available", "unavailable", "disabled")
        assert compiled.keys() == compiled_status().keys()

    def test_cli_backend_info(self, capsys):
        from repro.cli import main
        assert main(["backend-info"]) == 0
        captured = capsys.readouterr().out
        assert "fallback" not in captured
        assert "compiled kernel status:" in captured
        lines = captured.splitlines()
        for op_name in OP_REGISTRY.ops():
            impl = OP_REGISTRY.get(op_name).impl
            line = f"{op_name:<18} {impl.__module__}.{impl.__qualname__}"
            assert sum(text.strip() == line for text in lines) == 1, line
