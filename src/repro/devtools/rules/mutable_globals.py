"""REP003: mutable module globals must be ContextVar, lock-guarded, or
allowlisted.

Shared mutable state at module scope either has to be context-local
(``ContextVar``), or every mutation inside a function body must happen
under a registered lock whose
:attr:`~repro.devtools.locks.LockSpec.guards` names the global.
Module-scope statements (building ``__all__``, export tables, registries
at import time) run under the import lock and are exempt.

Why it stays: an unguarded check-then-act on a process-wide cache loses
only under a thread race, which no deterministic test provokes.
Planted by removing the ``_dataset_cache_lock`` around
``_DATASET_CACHE.setdefault`` in ``graph/datasets.py``, it left tier-1
(run without ``tests/devtools``) green; only REP003 fired.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule

#: method calls that mutate common containers in place
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "move_to_end", "appendleft",
    "extendleft", "sort", "reverse",
})


def _module_globals(tree: ast.Module) -> tuple[set, set]:
    """(module-global names, the subset bound to ContextVars)."""
    names: set = set()
    contextvars_: set = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            names.add(target.id)
            if isinstance(value, ast.Call):
                func = value.func
                attr = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if attr == "ContextVar":
                    contextvars_.add(target.id)
    return names, contextvars_


def _lock_guards(hierarchy, rel: str) -> dict:
    """lock global-name -> set of guarded global names, for this module."""
    guards = {}
    for spec in hierarchy:
        if spec.module == rel and spec.owner is None and spec.guards:
            guards[spec.name] = set(spec.guards)
    return guards


class _MutationScanner(ast.NodeVisitor):
    """Walk function bodies tracking local shadows and held guard sets."""

    def __init__(self, info, globals_, contextvars_, guards, allowlist,
                 findings):
        self.info = info
        self.globals = globals_
        self.contextvars = contextvars_
        self.guards = guards          # lock name -> guarded globals
        self.allowlist = allowlist
        self.findings = findings
        self.scopes: list[dict] = []  # {"locals": set, "globals": set}
        self.guarded: list[set] = []  # stack of guard-name sets in force

    # -- scope tracking -------------------------------------------------
    def _visit_func(self, node):
        local = {arg.arg for arg in (node.args.args + node.args.kwonlyargs
                                     + node.args.posonlyargs)}
        if node.args.vararg:
            local.add(node.args.vararg.arg)
        if node.args.kwarg:
            local.add(node.args.kwarg.arg)
        declared_global: set = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue  # their locals tracked in their own visit
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(
                                name.ctx, ast.Store):
                            local.add(name.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for name in ast.walk(sub.target):
                    if isinstance(name, ast.Name):
                        local.add(name.id)
            elif isinstance(sub, ast.comprehension):
                for name in ast.walk(sub.target):
                    if isinstance(name, ast.Name):
                        local.add(name.id)
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if isinstance(item.optional_vars, ast.Name):
                        local.add(item.optional_vars.id)
        local -= declared_global
        self.scopes.append({"locals": local, "globals": declared_global})
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _is_global(self, name: str) -> bool:
        if not self.scopes:
            return False  # module scope: import-time, exempt
        if name not in self.globals:
            return False
        for scope in reversed(self.scopes):
            if name in scope["globals"]:
                return True
            if name in scope["locals"]:
                return False
        return True

    def _held_guards(self) -> set:
        held: set = set()
        for layer in self.guarded:
            held |= layer
        return held

    def visit_With(self, node):
        layer: set = set()
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id in self.guards:
                layer |= self.guards[expr.id]
        self.guarded.append(layer)
        self.generic_visit(node)
        self.guarded.pop()

    visit_AsyncWith = visit_With

    # -- mutation checks ------------------------------------------------
    def _flag(self, name: str, node, how: str):
        if not self._is_global(name):
            return
        if name in self.contextvars:
            return
        if (self.info.rel, name) in self.allowlist:
            return
        if name in self._held_guards():
            return
        self.findings.append(Finding(
            self.info.rel, node.lineno, "REP003",
            f"module global '{name}' mutated ({how}) without its "
            "registered guard lock — use a ContextVar, hold the guarding "
            "lock, or allowlist it"))

    def visit_Assign(self, node):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name):
                self._flag(target.value.id, node, "item assignment")
            elif isinstance(target, ast.Name) and self.scopes:
                # plain rebinding is only a global mutation under `global`
                for scope in self.scopes:
                    if target.id in scope["globals"]:
                        self._flag(target.id, node, "rebinding via global")
                        break
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        target = node.target
        if isinstance(target, ast.Subscript) and isinstance(target.value,
                                                            ast.Name):
            self._flag(target.value.id, node, "augmented item assignment")
        elif isinstance(target, ast.Name):
            self._flag(target.id, node, "augmented assignment")
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name):
                self._flag(target.value.id, node, "item deletion")
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _MUTATING_METHODS):
            self._flag(func.value.id, node, f".{func.attr}()")
        self.generic_visit(node)


@rule("REP003", "mutable module globals must be ContextVar, mutated only "
                "under their registered guard lock, or allowlisted")
def check_mutable_globals(project, config):
    findings: list = []
    for info in project.modules:
        globals_, contextvars_ = _module_globals(info.tree)
        if not globals_:
            continue
        guards = _lock_guards(config.lock_hierarchy, info.rel)
        scanner = _MutationScanner(info, globals_, contextvars_, guards,
                                   config.globals_allowlist, findings)
        scanner.visit(info.tree)
    return findings
