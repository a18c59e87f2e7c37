"""The runtime's import footprint: numpy only, scipy on the fallback.

A training process or a serving shard loads neither ``scipy.sparse``
(~20 MB resident) nor ``networkx`` (~18 MB): scaffold keys and ring-atom
counts are computed in-house, and the CSR matvec imports scipy only when
a segment sum cannot run its C kernel.  Each check runs in a fresh
interpreter, because this test process has long since imported both.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.nn.compiled import build

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every registered op, forward and backward, in both policy dtypes; then
#: dataset synthesis and its scaffold split.  With ``CHECK_ORACLES`` each
#: result is also compared bit for bit with its ``tests/oracles.py``
#: reference.  Prints the footprint as JSON.
SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    import repro
    from repro.graph.datasets import load_dataset
    from repro.nn import Tensor, use_dtype
    from repro.nn.compiled import build
    from repro.nn.ops import OP_REGISTRY

    def run(op, sample):
        x = Tensor(sample.data.copy(), requires_grad=True)
        args, tracked = list(sample.args), [x]
        for position in sample.grad_args:
            args[position] = Tensor(args[position].copy(), requires_grad=True)
            tracked.append(args[position])
        out = op(x, *args)
        out.backward(np.ones_like(out.data))
        return [out.data] + [t.grad for t in tracked]

    CHECK_ORACLES = sys.argv[1] == "oracles"
    if CHECK_ORACLES:
        from tests.oracles import ORACLES
    mismatches = []
    for dtype in ("float64", "float32"):
        with use_dtype(dtype):
            for name in OP_REGISTRY.ops():
                entry = OP_REGISTRY.get(name)
                for sample in entry.samples(np.dtype(dtype).type):
                    if not entry.differentiable:
                        got = [entry.impl(sample.data.copy(), *sample.args)]
                        if CHECK_ORACLES:
                            want = [ORACLES[name](sample.data.copy(),
                                                  *sample.args)]
                    else:
                        got = run(entry.impl, sample)
                        if CHECK_ORACLES:
                            want = run(ORACLES[name], sample)
                    if CHECK_ORACLES and not all(
                            np.array_equal(a, b) for a, b in zip(got, want)):
                        mismatches.append([dtype, name, sample.label])
    dataset = load_dataset("bbbp", size=60)
    dataset.split()
    print(json.dumps({
        "compiled": build.load() is not None,
        "mismatches": mismatches,
        "labelled": sum(g.y is not None for g in dataset.graphs),
        "modules": sorted(m for m in ("scipy.sparse", "networkx")
                          if m in sys.modules),
    }))
""")


def footprint(mode: str, **env) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode], capture_output=True, text=True,
        cwd=REPO, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(REPO, "src"), REPO]), **env})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.compiled
@pytest.mark.skipif(build.find_compiler() is None,
                    reason="no C compiler discovered")
def test_compiled_runtime_loads_neither_scipy_sparse_nor_networkx():
    result = footprint("plain")
    assert result["compiled"] is True
    assert result["labelled"] == 60
    assert result["modules"] == []


def test_no_compiler_fallback_loads_scipy_and_matches_the_oracles():
    result = footprint("oracles", REPRO_COMPILED_DISABLE="1")
    assert result["compiled"] is False
    assert result["mismatches"] == []
    assert result["modules"] == ["scipy.sparse"]
