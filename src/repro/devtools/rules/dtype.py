"""REP007: hard-coded float64 / dtype-less allocations banned on hot paths.

The inference memory plane (:mod:`repro.nn.policy`) makes the execution
dtype an explicit, context-local policy: float64 for training, float32
for serving.  A hot-path module that hard-codes ``dtype=np.float64`` (or
the ``"float64"`` string) in an allocation or cast silently pins that
path to double precision — upcasting float32 serving traffic back to
float64 and defeating the policy.  A *dtype-less* ``np.zeros`` /
``np.empty`` is the same bug in disguise: numpy defaults to float64.

The rule fires only in ``config.dtype_hot_modules``.  The policy module
itself and :mod:`repro.nn.tensor` (whose allocations follow the operand
dtypes) are exempt by omission.  Lines carrying a
``# repro: disable=REP007`` pragma are sanctioned (e.g. dataset-level
labels that stay canonical float64 across policies).
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule

#: numpy callables that materialize or cast an array; a hard-coded
#: float64 handed to any of these fixes the result's dtype.
_ALLOC_FUNCS = frozenset({
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "asarray", "array", "ascontiguousarray",
})
#: of those, the ones whose *omitted* dtype defaults to float64 — a bare
#: call is an implicit float64 allocation.
_DEFAULT_FLOAT_FUNCS = frozenset({"zeros", "empty", "ones"})


def _numpy_aliases(tree: ast.Module) -> tuple[set, set]:
    """(names bound to the numpy module, names bound to numpy.float64)."""
    module_aliases: set = set()
    member_aliases: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    module_aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "float64":
                    member_aliases.add(alias.asname or "float64")
    return module_aliases, member_aliases


def _is_float64(node, module_aliases: set, member_aliases: set) -> bool:
    """Whether an expression is a hard-coded float64 dtype."""
    if (isinstance(node, ast.Attribute) and node.attr == "float64"
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases):
        return True
    if isinstance(node, ast.Name) and node.id in member_aliases:
        return True
    if isinstance(node, ast.Constant) and node.value == "float64":
        return True
    return False


def _called_allocator(func, module_aliases: set) -> str | None:
    """``np.zeros`` -> ``"zeros"`` when func is a numpy allocator call."""
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in module_aliases
            and func.attr in _ALLOC_FUNCS):
        return func.attr
    return None


@rule("REP007", "hard-coded np.float64 (or dtype-less np.zeros/empty/ones) "
                "allocations banned in hot-path modules — use the active "
                "ExecutionPolicy dtype (repro.nn.policy)")
def check_dtype(project, config):
    findings = []
    hot = frozenset(getattr(config, "dtype_hot_modules", ()))
    for info in project.modules:
        if info.rel not in hot:
            continue
        module_aliases, member_aliases = _numpy_aliases(info.tree)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            allocator = _called_allocator(node.func, module_aliases)
            is_astype = (isinstance(node.func, ast.Attribute)
                         and node.func.attr == "astype")
            if allocator is None and not is_astype:
                continue
            label = (f"np.{allocator}" if allocator is not None
                     else ".astype")
            hard_coded = any(
                _is_float64(arg, module_aliases, member_aliases)
                for arg in list(node.args)
                + [kw.value for kw in node.keywords])
            if hard_coded:
                findings.append(Finding(
                    info.rel, node.lineno, "REP007",
                    f"hard-coded float64 in {label}(...) on a hot path — "
                    "allocate in the active policy dtype "
                    "(repro.nn.policy.active_dtype)"))
                continue
            if (allocator in _DEFAULT_FLOAT_FUNCS
                    and len(node.args) < 2
                    and not any(kw.arg == "dtype" for kw in node.keywords)):
                findings.append(Finding(
                    info.rel, node.lineno, "REP007",
                    f"dtype-less {label}(...) on a hot path defaults to "
                    "float64 — pass an explicit policy-derived dtype"))
    return findings
