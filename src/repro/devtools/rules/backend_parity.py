"""REP005: backend parity, sourced from the op registry.

The fast plan-backed ops in :mod:`repro.nn.segment` and the legacy
``np.add.at`` reference ops in :mod:`repro.nn.tensor` are a contract
pair, and the registry in ``nn/ops.py`` is where that contract is
declared.  This rule checks the declaration against the code instead of
reverse-engineering dispatch from the AST (the pre-registry heuristics —
"does the op body mention 'legacy'?" — are gone):

* every public segment-family op exported by the fast module must be a
  registered op (otherwise it bypasses dispatch and escapes the
  differential suites);
* every registered op must carry an implementation for the reference
  backend (the declared backend with no fallback) — the fallback chain
  bottoms out there, and cross-backend parity needs a reference leg;
* every registered op name must appear in the differential/gradcheck
  suite files (skipped when none exist — fixture projects);
* no inline backend branching outside the ops module: comparing a call
  result against a declared backend-name literal is exactly the
  scattered-``if`` dispatch the registry replaced;
* ``np.add.at`` / ``np.maximum.at`` — the slow scatters the fast backend
  exists to replace — stay banned outside the legacy reference module
  (a fast path that needs the reference scatter calls the legacy op).
"""

from __future__ import annotations

import ast
import os

from ..findings import Finding
from ..opregs import parse_ops_module
from ..registry import rule

#: Ops the fast module may export without registering (plan plumbing).
_NON_OP_EXPORTS = frozenset({
    "SegmentPlan", "as_plan", "use_backend", "active_backend",
})


def _declared_all(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        return [e.value for e in node.value.elts
                                if isinstance(e, ast.Constant)
                                and isinstance(e.value, str)]
    return []


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


def _inline_backend_branches(tree: ast.Module, backend_names: frozenset):
    """Yield Compare nodes matching a call result against a backend name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        named = [o for o in operands
                 if isinstance(o, ast.Constant) and o.value in backend_names]
        calls = [o for o in operands if isinstance(o, ast.Call)]
        if named and calls:
            yield node, named[0].value


@rule("REP005", "public segment ops must be registered with a reference-"
                "backend impl, be suite-covered, and keep inline backend "
                "branches and ufunc.at scatters out of hot paths")
def check_backend_parity(project, config):
    findings: list = []
    fast = project.get(config.parity_fast_module)
    ops_info = project.get(getattr(config, "ops_module", None) or "")
    model = parse_ops_module(ops_info) if ops_info is not None else None
    registered = ({reg.name for reg in model.registrations
                   if not reg.dynamic_name} if model else set())
    backend_names = frozenset(model.backend_fallbacks) if model else frozenset()
    reference_backends = {name for name, fallback
                          in (model.backend_fallbacks.items() if model else ())
                          if fallback is None}

    if fast is not None and model is not None:
        # Public fast-module ops must all be registered.
        public = _declared_all(fast.tree)
        ops = [name for name in public if name not in _NON_OP_EXPORTS]
        for name in ops:
            if name not in registered:
                findings.append(Finding(
                    fast.rel, 1, "REP005",
                    f"public op '{name}' in __all__ is not registered in "
                    f"the op registry ({ops_info.rel}) — it bypasses "
                    "backend dispatch and the differential suites"))

        # Every registration needs a reference-backend implementation.
        for reg in model.registrations:
            if reg.dynamic_name:
                continue
            if reference_backends and not (set(reg.backends)
                                           & reference_backends):
                findings.append(Finding(
                    ops_info.rel, reg.lineno, "REP005",
                    f"op '{reg.name}' has no reference-backend "
                    f"implementation ({tuple(sorted(reference_backends))})"
                    " — the fallback chain cannot bottom out and parity "
                    "has no reference leg"))

        # Suite coverage, from the registry (skipped for fixtures).
        repo_root = os.path.dirname(os.path.dirname(project.root))
        suites = []
        for rel in config.parity_suite_files:
            path = os.path.join(repo_root, rel)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    suites.append((rel, handle.read()))
        if suites:
            for reg in model.registrations:
                if reg.dynamic_name:
                    continue
                if not any(reg.name in text for _, text in suites):
                    findings.append(Finding(
                        ops_info.rel, reg.lineno, "REP005",
                        f"registered op '{reg.name}' is referenced by none "
                        "of the differential/gradcheck suite files"))

    # Inline backend branches: dispatch belongs in the registry.
    if backend_names:
        ops_rel = ops_info.rel if ops_info is not None else None
        for info in project.modules:
            if info.rel == ops_rel:
                continue
            for node, backend in _inline_backend_branches(info.tree,
                                                          backend_names):
                findings.append(Finding(
                    info.rel, node.lineno, "REP005",
                    f"inline backend branch comparing against {backend!r} "
                    "— dispatch through the op registry instead"))

    # ufunc.at ban: the reference module only.
    for info in project.modules:
        if info.rel == config.parity_reference_module:
            continue
        for call, label in _ufunc_at_calls(info.tree):
            findings.append(Finding(
                info.rel, call.lineno, "REP005",
                f"{label} scatter outside the legacy reference ops — use "
                "the plan-backed segment kernels, or call the legacy op"))
    return findings
