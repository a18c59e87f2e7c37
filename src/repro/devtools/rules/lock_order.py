"""REP001 lock-order analysis + REP006 undocumented-lock census.

REP001 builds, per function, the sequence of lock acquisitions (``with``
blocks over expressions that resolve to a registered
:class:`~repro.devtools.locks.LockSpec`) and an intra-package call graph,
then flags:

* acquiring a lock of rank <= the highest-ranked lock already held
  (hierarchy inversion — the classic deadlock shape);
* re-entering a non-reentrant ``Lock`` already held on the same path;
* calling a function whose *transitive* acquisitions include such a lock;
* known blocking calls (``.wait()`` / ``.join()``, and ``.get()`` /
  ``.put()`` on queue-named receivers) while any registered lock is held.

Resolution is name-based and deliberately conservative: ``self._lock``
resolves through the enclosing class, ``self.service._lock`` through the
config's attribute bindings, and module globals by name.  An attribute
assigned ``threading.Condition(<expr>)`` (``self._work =
threading.Condition(self.router._lock)``) resolves to the lock ``<expr>``
resolves to, and its ``.wait()`` releases that lock rather than blocking
under it.  A lock reached through a local alias (``held =
self.router._lock``) is not resolved.  Nested
functions and lambdas execute later, so their bodies are analyzed
separately with an empty held set and their acquisitions do not count at
the definition site.

REP006 cross-checks creation sites against the hierarchy table in both
directions: every ``threading.Lock/RLock()`` constructed in the tree
must be a registered spec of the right kind, and every registered spec
whose module is in the tree must still have a creation site.

Why they stay (each planted in ``src/repro``, then tier-1 run without
``tests/devtools``):

* REP001 — a blocking call under a lock, which the runtime
  :class:`~repro.devtools.runtime.LockOrderGuard` does not check:
  ``self._ticker.join()`` moved under ``InferenceServer._lock`` in
  ``InferenceServer.stop`` left tier-1 green; only REP001 fired.  Plain
  inversions on paths the stress suite runs are caught by the guard
  too; an inversion through a local alias escapes REP001.
* REP006 — a lock outside the ranked table, which neither REP001 nor
  the guard can rank: an unregistered ``threading.Lock()`` taken around
  ``ModelRegistry._build`` left tier-1 green; only REP006 fired.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from ..findings import Finding
from ..registry import rule

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})
_THREADING_FACTORIES = _LOCK_FACTORIES | {"Condition"}
_BLOCKING_ATTRS = frozenset({"wait", "join"})
_QUEUE_ATTRS = frozenset({"get", "put"})


# ----------------------------------------------------------------------
# lock creation sites
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CreationSite:
    module: str
    owner: str | None
    name: str
    kind: str
    line: int


def _import_aliases(tree: ast.Module) -> tuple[set, dict]:
    """(names bound to the ``threading`` module, direct Lock/RLock/
    Condition names)."""
    module_aliases: set = set()
    direct: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    module_aliases.add(alias.asname or "threading")
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            for alias in node.names:
                if alias.name in _THREADING_FACTORIES:
                    direct[alias.asname or alias.name] = alias.name
    return module_aliases, direct


def _factory(value, module_aliases: set, direct: dict) -> str | None:
    """``"Lock"``/``"RLock"``/``"Condition"`` when ``value`` constructs
    one, else None."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in module_aliases
            and func.attr in _THREADING_FACTORIES):
        return func.attr
    if isinstance(func, ast.Name) and func.id in direct:
        return direct[func.id]
    return None


class _CreationVisitor(ast.NodeVisitor):
    """Collect every lock construction with its (owner, name) candidates."""

    def __init__(self, rel: str, module_aliases: set, direct: dict):
        self.rel = rel
        self.module_aliases = module_aliases
        self.direct = direct
        self.class_stack: list[str] = []
        self.func_depth = 0
        self.sites: list[tuple[CreationSite, list]] = []

    def visit_ClassDef(self, node):
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_func(self, node):
        self.func_depth += 1
        self.generic_visit(node)
        self.func_depth -= 1

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _candidates(self, targets) -> list[tuple[str | None, str]]:
        owner = self.class_stack[-1] if self.class_stack else None
        out = []
        for target in targets:
            if isinstance(target, ast.Attribute):
                if (isinstance(target.value, ast.Name)
                        and target.value.id == "self" and owner):
                    out.append((owner, target.attr))
            elif isinstance(target, ast.Subscript):
                inner = target.value
                if (isinstance(inner, ast.Attribute)
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id == "self" and owner):
                    out.append((owner, inner.attr))
            elif isinstance(target, ast.Name):
                if self.func_depth == 0:
                    # module-level or class-body lock
                    out.append((owner, target.id))
                else:
                    # A bare local: only meaningful if no other target
                    # registers the lock (checked by the caller).
                    out.append((None, target.id))
        return out

    def _record(self, node, value, targets):
        kind = _factory(value, self.module_aliases, self.direct)
        if kind not in _LOCK_FACTORIES:
            return
        candidates = self._candidates(targets)
        name = candidates[0][1] if candidates else "<anonymous>"
        owner = candidates[0][0] if candidates else None
        self.sites.append((CreationSite(self.rel, owner, name, kind,
                                        node.lineno), candidates))

    def visit_Assign(self, node):
        self._record(node, node.value, node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None and node.target is not None:
            self._record(node, node.value, [node.target])
        self.generic_visit(node)


def _collect_sites(info) -> list[tuple[CreationSite, list]]:
    module_aliases, direct = _import_aliases(info.tree)
    if not module_aliases and not direct:
        return []
    visitor = _CreationVisitor(info.rel, module_aliases, direct)
    visitor.visit(info.tree)
    return visitor.sites


# ----------------------------------------------------------------------
# spec lookup helpers
# ----------------------------------------------------------------------
def _spec_owner_attr(hierarchy, owner: str | None, name: str):
    for spec in hierarchy:
        if spec.owner == owner and spec.name == name:
            return spec
    return None


def _spec_module_global(hierarchy, module: str, name: str):
    for spec in hierarchy:
        if spec.module == module and spec.owner is None and spec.name == name:
            return spec
    return None


# ----------------------------------------------------------------------
# the flow analysis
# ----------------------------------------------------------------------
@dataclass
class _Ctx:
    rel: str
    current_class: str | None
    config: object
    functions: dict
    classes: dict
    hierarchy: tuple
    conditions: dict                 # (class, attr) -> the LockSpec it wraps
    trans: dict | None = None        # set in the reporting pass
    nested: list = field(default_factory=list)


@dataclass
class _Sink:
    acquires: set = field(default_factory=set)
    calls: set = field(default_factory=set)
    findings: list = field(default_factory=list)
    report: bool = False


def _receiver_class(expr, ctx: _Ctx) -> str | None:
    """The class a lock/method receiver expression refers to, if known."""
    bindings = ctx.config.attr_bindings
    if isinstance(expr, ast.Name):
        if expr.id == "self":
            return ctx.current_class
        if expr.id in bindings:
            return bindings[expr.id]
        if expr.id in ctx.classes:
            return expr.id  # classmethod/staticmethod access, e.g. Tensor
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "self" and expr.attr in bindings):
        return bindings[expr.attr]
    return None


def _resolve_lock(expr, ctx: _Ctx):
    """The LockSpec an expression evaluates to, or None."""
    if isinstance(expr, ast.Name):
        return _spec_module_global(ctx.hierarchy, ctx.rel, expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _receiver_class(expr.value, ctx)
        if owner is not None:
            return (_spec_owner_attr(ctx.hierarchy, owner, expr.attr)
                    or ctx.conditions.get((owner, expr.attr)))
    return None


def _resolve_callee(func, ctx: _Ctx):
    """The (module, owner, name) key of an intra-package callee, or None."""
    if isinstance(func, ast.Name):
        key = (ctx.rel, None, func.id)
        return key if key in ctx.functions else None
    if isinstance(func, ast.Attribute):
        owner = _receiver_class(func.value, ctx)
        if owner is not None:
            module = ctx.classes.get(owner)
            if module is not None:
                key = (module, owner, func.attr)
                if key in ctx.functions:
                    return key
    return None


def _walk_expr(expr):
    """Yield expression nodes, not descending into lambda bodies (their
    calls run later, under the *caller's* held set, not ours)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.expr)
                     or isinstance(child, ast.comprehension))


def _held_summary(held) -> str:
    worst = max(held, key=lambda s: s.rank)
    return f"{worst.qualified} (rank {worst.rank})"


def _check_call(call: ast.Call, held, ctx: _Ctx, sink: _Sink):
    func = call.func
    callee = _resolve_callee(func, ctx)
    if callee is not None:
        sink.calls.add(callee)
    if not sink.report or not held:
        return
    if isinstance(func, ast.Attribute):
        receiver = ast.unparse(func.value)
        if func.attr in _BLOCKING_ATTRS or (
                func.attr in _QUEUE_ATTRS and "queue" in receiver.lower()):
            # A Condition's wait() releases the lock it wraps.
            released = (_resolve_lock(func.value, ctx)
                        if func.attr == "wait" else None)
            blocked = [spec for spec in held if spec != released]
            if blocked:
                sink.findings.append(Finding(
                    ctx.rel, call.lineno, "REP001",
                    f"blocking call {receiver}.{func.attr}() while holding "
                    f"{_held_summary(blocked)}"))
    if callee is not None and ctx.trans is not None:
        max_rank = max(spec.rank for spec in held)
        for spec in sorted(ctx.trans.get(callee, ()), key=lambda s: s.rank):
            if spec in held:
                if spec.kind == "Lock":
                    sink.findings.append(Finding(
                        ctx.rel, call.lineno, "REP001",
                        f"call to {callee[2]}() may re-acquire non-reentrant "
                        f"{spec.qualified} already held"))
            elif spec.rank <= max_rank:
                sink.findings.append(Finding(
                    ctx.rel, call.lineno, "REP001",
                    f"call to {callee[2]}() may acquire {spec.qualified} "
                    f"(rank {spec.rank}) while holding {_held_summary(held)}"))


def _check_acquire(spec, held, node, ctx: _Ctx, sink: _Sink):
    sink.acquires.add(spec)
    if not sink.report or not held:
        return
    if spec in held:
        if spec.kind == "Lock":
            sink.findings.append(Finding(
                ctx.rel, node.lineno, "REP001",
                f"re-acquiring non-reentrant {spec.qualified} already held "
                "on this path (self-deadlock)"))
        return
    max_rank = max(s.rank for s in held)
    if spec.rank <= max_rank:
        sink.findings.append(Finding(
            ctx.rel, node.lineno, "REP001",
            f"acquires {spec.qualified} (rank {spec.rank}) while holding "
            f"{_held_summary(held)} — violates the lock hierarchy"))


def _scan_expr(expr, held, ctx: _Ctx, sink: _Sink):
    for node in _walk_expr(expr):
        if isinstance(node, ast.Call):
            _check_call(node, held, ctx, sink)


def _scan_block(stmts, held, ctx: _Ctx, sink: _Sink):
    for stmt in stmts:
        _scan_stmt(stmt, held, ctx, sink)


def _scan_stmt(stmt, held, ctx: _Ctx, sink: _Sink):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        # Runs later (or defines methods analyzed on their own): never
        # under the current held set.
        ctx.nested.append(stmt)
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        inner = list(held)
        for item in stmt.items:
            _scan_expr(item.context_expr, inner, ctx, sink)
            spec = _resolve_lock(item.context_expr, ctx)
            if spec is not None:
                _check_acquire(spec, inner, stmt, ctx, sink)
                inner.append(spec)
        _scan_block(stmt.body, inner, ctx, sink)
        return
    for _, value in ast.iter_fields(stmt):
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.stmt):
                    _scan_stmt(item, held, ctx, sink)
                elif isinstance(item, ast.excepthandler):
                    _scan_block(item.body, held, ctx, sink)
                elif isinstance(item, ast.expr):
                    _scan_expr(item, held, ctx, sink)
        elif isinstance(value, ast.expr):
            _scan_expr(value, held, ctx, sink)


def _index_functions(project):
    """(function key -> (info, node), class name -> module rel)."""
    functions: dict = {}
    classes: dict = {}
    for info in project.modules:
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[(info.rel, None, node.name)] = (info, node)
            elif isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, info.rel)
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        functions[(info.rel, node.name, sub.name)] = (info, sub)
    return functions, classes


def _index_conditions(project, base: _Ctx) -> dict:
    """(class, attr) -> the LockSpec that ``self.attr =
    threading.Condition(<lock>)`` wraps, where ``<lock>`` resolves."""
    conditions: dict = {}
    for info in project.modules:
        module_aliases, direct = _import_aliases(info.tree)
        for cls in info.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            ctx = replace(base, rel=info.rel, current_class=cls.name)
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Assign) and _factory(
                        node.value, module_aliases, direct) == "Condition"
                        and node.value.args):
                    continue
                spec = _resolve_lock(node.value.args[0], ctx)
                for target in node.targets:
                    if (spec is not None and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        conditions[(cls.name, target.attr)] = spec
    return conditions


def _scan_function(key, node, info, base: _Ctx, report: bool) -> _Sink:
    """Scan one function body (plus its nested defs, each with an empty
    held set).  Nested acquisitions do not leak into the summary."""
    sink = _Sink(report=report)
    ctx = replace(base, rel=info.rel, current_class=key[1], nested=[])
    _scan_block(node.body, [], ctx, sink)
    # Nested defs: analyze for violations only, under an empty held set.
    pending = list(ctx.nested)
    while pending and report:
        nested = pending.pop()
        if isinstance(nested, ast.ClassDef):
            continue
        sub_sink = _Sink(report=True)
        sub_ctx = replace(ctx, nested=[])
        _scan_block(nested.body, [], sub_ctx, sub_sink)
        sink.findings.extend(sub_sink.findings)
        pending.extend(n for n in sub_ctx.nested
                       if not isinstance(n, ast.ClassDef))
    return sink


@rule("REP001", "lock acquisitions must follow the documented hierarchy; "
                "no blocking calls under a lock")
def check_lock_order(project, config):
    functions, classes = _index_functions(project)
    base = _Ctx(rel="", current_class=None, config=config,
                functions=functions, classes=classes,
                hierarchy=config.lock_hierarchy, conditions={})
    base = replace(base, conditions=_index_conditions(project, base))

    # Pass 1: per-function summaries (direct acquires + resolved calls).
    summaries = {}
    for key, (info, node) in functions.items():
        summaries[key] = _scan_function(key, node, info, base, False)

    # Pass 2: transitive acquisition sets to a fixpoint.
    trans = {key: set(sink.acquires) for key, sink in summaries.items()}
    changed = True
    while changed:
        changed = False
        for key, sink in summaries.items():
            for callee in sink.calls:
                extra = trans.get(callee, set()) - trans[key]
                if extra:
                    trans[key] |= extra
                    changed = True

    # Pass 3: report violations, including module-level code.
    base = replace(base, trans=trans)
    findings = []
    for key, (info, node) in functions.items():
        findings.extend(_scan_function(key, node, info, base, True).findings)
    for info in project.modules:
        sink = _Sink(report=True)
        ctx = replace(base, rel=info.rel, nested=[])
        for stmt in info.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                _scan_stmt(stmt, [], ctx, sink)
        findings.extend(sink.findings)
    return findings


@rule("REP006", "every Lock/RLock created in the tree must be registered "
                "in the lock-hierarchy table (and vice versa)")
def check_undocumented_locks(project, config):
    hierarchy = config.lock_hierarchy
    findings = []
    seen: set = set()
    for info in project.modules:
        for site, candidates in _collect_sites(info):
            spec = None
            for owner, name in candidates:
                spec = _spec_owner_attr(
                    hierarchy, owner, name) if owner else _spec_module_global(
                    hierarchy, info.rel, name)
                if spec is not None and spec.module == info.rel:
                    break
                spec = None
            if spec is None:
                findings.append(Finding(
                    info.rel, site.line, "REP006",
                    f"threading.{site.kind}() for "
                    f"{(site.owner + '.') if site.owner else ''}{site.name} "
                    "is not registered in devtools.locks.LOCK_HIERARCHY"))
                continue
            seen.add((spec.module, spec.owner, spec.name))
            if spec.kind != site.kind:
                findings.append(Finding(
                    info.rel, site.line, "REP006",
                    f"{spec.qualified} is registered as {spec.kind} but "
                    f"created as threading.{site.kind}()"))
    for spec in hierarchy:
        info = project.get(spec.module)
        if info is None:
            continue  # linting a subtree / fixture dir
        if (spec.module, spec.owner, spec.name) not in seen:
            findings.append(Finding(
                spec.module, 1, "REP006",
                f"stale hierarchy entry: {spec.qualified} has no creation "
                "site — update devtools.locks.LOCK_HIERARCHY"))
    return findings
