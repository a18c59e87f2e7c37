"""REP008: the op-registry table must be complete and backend-closed.

The registry in ``nn/ops.py`` is the single source of truth for backend
dispatch, the gradcheck sweep and the parity suites — an incomplete
registration silently shrinks all three.  Statically (via
:mod:`repro.devtools.opregs`), every ``register(...)`` call must:

* use a literal op name (a dynamic name is invisible to every lint);
* declare a non-empty ``adjoint`` description;
* declare a ``samples`` generator;
* declare at least two backends, or carry an explicit single-backend
  ``waiver``;
* only use backend keys declared via ``register_backend``.

And everywhere in the linted tree, a ``use_backend("...")`` string
literal must name a declared backend — a typo would raise at runtime
only on the (possibly untested) path that hits it.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..opregs import parse_ops_module
from ..registry import rule


def _is_use_backend(func) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "use_backend"
    if isinstance(func, ast.Attribute):
        return func.attr == "use_backend"
    return False


@rule("REP008", "registered ops must declare adjoint, samples and >=2 "
                "backends (or a waiver); use_backend literals must name "
                "declared backends")
def check_op_registry(project, config):
    findings: list = []
    ops_rel = getattr(config, "ops_module", None)
    info = project.get(ops_rel) if ops_rel else None
    if info is None:
        return findings  # fixture projects without an ops module
    model = parse_ops_module(info)
    declared = set(model.backend_fallbacks)

    for name, fallback in model.backend_fallbacks.items():
        if fallback is not None and fallback not in declared:
            findings.append(Finding(
                info.rel, model.backend_decls[name], "REP008",
                f"backend '{name}' falls back to undeclared "
                f"'{fallback}'"))

    seen: set = set()
    for reg in model.registrations:
        if reg.dynamic_name:
            findings.append(Finding(
                info.rel, reg.lineno, "REP008",
                "register() call with a non-literal op name — invisible "
                "to the registry lints; use a string constant"))
            continue
        if reg.name in seen:
            findings.append(Finding(
                info.rel, reg.lineno, "REP008",
                f"op '{reg.name}' registered twice"))
        seen.add(reg.name)
        if not reg.has_adjoint or reg.adjoint_empty:
            findings.append(Finding(
                info.rel, reg.lineno, "REP008",
                f"op '{reg.name}' registered without an adjoint "
                "description"))
        if not reg.has_samples:
            findings.append(Finding(
                info.rel, reg.lineno, "REP008",
                f"op '{reg.name}' registered without a samples generator "
                "— the gradcheck sweep and parity suites would skip it"))
        if len(reg.backends) < 2 and reg.waiver is None:
            findings.append(Finding(
                info.rel, reg.lineno, "REP008",
                f"op '{reg.name}' declares a single backend with no "
                "waiver — add a second backend entry or an explicit "
                "single-backend waiver"))
        for backend in reg.backends:
            if backend not in declared:
                findings.append(Finding(
                    info.rel, reg.lineno, "REP008",
                    f"op '{reg.name}' registered for undeclared backend "
                    f"'{backend}'"))

    # use_backend("...") literals anywhere in the tree must be declared.
    for minfo in project.modules:
        for node in ast.walk(minfo.tree):
            if not (isinstance(node, ast.Call)
                    and _is_use_backend(node.func)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            backend = node.args[0].value
            if backend not in declared:
                findings.append(Finding(
                    minfo.rel, node.lineno, "REP008",
                    f"use_backend({backend!r}) names an undeclared "
                    f"backend; declared: {tuple(sorted(declared))}"))
    return findings
