"""REP005: the ``ufunc.at`` ban.

``np.add.at`` / ``np.maximum.at`` are the slow per-element scatters the
plan-backed segment kernels and the C scatter loop exist to replace.
They stay banned everywhere but ``config.parity_reference_module``
(``nn/tensor.py``), which keeps the two runtime fallbacks that still
need one: the scatter for layouts the fast kernels reject and the
fancy-index ``__getitem__`` adjoint.  The ``np.add.at`` references the
tests compare the fast ops against live in ``tests/oracles.py``.

Why it stays: a ``ufunc.at`` scatter computes the same sums as the fast
kernels, so no parity test can tell them apart.  Planted as
``np.add.at(gh, src, g[dst])`` in place of the ``scatter`` call in the
``h`` adjoint of ``nn/segment.py::_gin_node``, it left tier-1 (run
without ``tests/devtools``) green; only REP005 fired.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule


def _ufunc_at_calls(tree: ast.Module):
    """Yield ``np.add.at`` / ``np.maximum.at`` Call nodes."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "at"):
            continue
        inner = node.func.value
        if (isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "np"
                and inner.attr in ("add", "maximum")):
            yield node, f"np.{inner.attr}.at"


@rule("REP005", "np.add.at / np.maximum.at scatters stay out of every "
                "module but the runtime-fallback one")
def check_ufunc_at(project, config):
    findings: list = []
    for info in project.modules:
        if info.rel == config.parity_reference_module:
            continue
        for call, label in _ufunc_at_calls(info.tree):
            findings.append(Finding(
                info.rel, call.lineno, "REP005",
                f"{label} scatter outside {config.parity_reference_module}"
                " — use the plan-backed segment kernels or scatter_add"))
    return findings
