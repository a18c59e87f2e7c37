"""Static model of the op-registry table in ``nn/ops.py``.

The registry module keeps every ``register(...)`` /
``register_backend(...)`` call a literal (constant op name, dict-literal
backends) precisely so the lint rules can read the table without
importing the package.  This module is that reader: it parses one
:class:`~repro.devtools.project.ModuleInfo` into
:class:`OpsModuleModel` — the declared backends with their fallback
chain, every op registration with its backend->implementation
references, and the module's import aliases (so an implementation
reference like ``_segment._segment_sum_plan`` can be resolved back to
``nn/segment.py`` by REP004).

Shared by REP004 (autograd consistency of registered implementations),
REP005 (registry-sourced backend parity) and REP008 (registration
completeness + ``use_backend`` literal validation).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["OpRegistration", "OpsModuleModel", "parse_ops_module",
           "resolve_impl"]


@dataclass
class OpRegistration:
    """One ``register(...)`` call, statically extracted."""

    name: str
    lineno: int
    #: backend name -> (alias, attribute) implementation reference;
    #: ``alias`` is "" for a bare name, None marks an unreadable value
    #: (lambda, call, subscript).
    backends: dict = field(default_factory=dict)
    has_adjoint: bool = False
    adjoint_empty: bool = False
    has_samples: bool = False
    waiver: str | None = None
    differentiable: bool = True
    #: True when the op name was not a string literal (unparseable).
    dynamic_name: bool = False


@dataclass
class OpsModuleModel:
    """Everything the rules need from one parsed ops module."""

    registrations: list
    #: backend name -> declaration line
    backend_decls: dict = field(default_factory=dict)
    #: backend name -> fallback backend name (or None)
    backend_fallbacks: dict = field(default_factory=dict)
    #: local alias -> project-relative module path ("nn/segment.py")
    alias_to_module: dict = field(default_factory=dict)
    #: local name -> (project-relative module path, original name)
    from_imports: dict = field(default_factory=dict)


def _relative_base(info_rel: str, level: int, module: str | None) -> list:
    """Package-path components a relative import resolves against."""
    parts = info_rel.split("/")[:-1]
    for _ in range(max(level - 1, 0)):
        if parts:
            parts.pop()
    if module:
        parts.extend(module.split("."))
    return parts


def _collect_imports(tree: ast.Module, info_rel: str, model: OpsModuleModel):
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue  # absolute imports leave the project; out of scope
        base = _relative_base(info_rel, node.level, node.module)
        for alias in node.names:
            local = alias.asname or alias.name
            # ``from . import segment as _segment`` and ``from .compiled
            # import kernels as _kernels`` bind modules ...
            model.alias_to_module[local] = "/".join(
                base + [alias.name]) + ".py"
            if node.module is not None:
                # ... while ``from .tensor import as_tensor`` binds a member.
                model.from_imports[local] = ("/".join(base) + ".py",
                                             alias.name)


def _impl_ref(value):
    """(alias, attr) for a Name/Attribute implementation value, else None."""
    if isinstance(value, ast.Name):
        return ("", value.id)
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        return (value.value.id, value.attr)
    return None


def _registration_of(call: ast.Call) -> OpRegistration:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        reg = OpRegistration(name=call.args[0].value, lineno=call.lineno)
    else:
        reg = OpRegistration(name="<dynamic>", lineno=call.lineno,
                             dynamic_name=True)
    for keyword in call.keywords:
        value = keyword.value
        if keyword.arg == "backends" and isinstance(value, ast.Dict):
            for key, impl in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    reg.backends[key.value] = _impl_ref(impl)
        elif keyword.arg == "adjoint":
            reg.has_adjoint = True
            reg.adjoint_empty = (isinstance(value, ast.Constant)
                                 and not value.value)
        elif keyword.arg == "samples":
            reg.has_samples = True
        elif keyword.arg == "waiver":
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                reg.waiver = value.value
            elif not (isinstance(value, ast.Constant) and value.value is None):
                reg.waiver = "<dynamic>"
        elif keyword.arg == "differentiable":
            if isinstance(value, ast.Constant):
                reg.differentiable = bool(value.value)
    return reg


def parse_ops_module(info) -> OpsModuleModel:
    """Extract the registry table from a parsed ops module.

    ``info`` is a :class:`~repro.devtools.project.ModuleInfo`.  Only
    literal calls are modeled — a dynamically-built registration is
    recorded with ``dynamic_name=True`` so REP008 can flag it rather
    than silently skipping it.
    """
    model = OpsModuleModel(registrations=[])
    _collect_imports(info.tree, info.rel, model)
    for node in ast.walk(info.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "register_backend":
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                name = node.args[0].value
                fallback = None
                if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                    fallback = node.args[1].value
                for keyword in node.keywords:
                    if keyword.arg == "fallback" and isinstance(
                            keyword.value, ast.Constant):
                        fallback = keyword.value.value
                model.backend_decls[name] = node.lineno
                model.backend_fallbacks[name] = fallback
        elif node.func.attr == "register":
            model.registrations.append(_registration_of(node))
    return model


def resolve_impl(model: OpsModuleModel, info_rel: str, ref):
    """(module rel path, function name) an impl reference points at.

    ``ref`` is the ``(alias, attr)`` pair from :class:`OpRegistration`;
    returns ``(None, None)`` when the reference cannot be resolved
    statically (unknown alias, non-name value).
    """
    if ref is None:
        return None, None
    alias, attr = ref
    if alias:
        target = model.alias_to_module.get(alias)
        return (target, attr) if target else (None, None)
    if attr in model.from_imports:
        return model.from_imports[attr]
    return info_rel, attr
