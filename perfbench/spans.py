"""In-memory span tracer that instruments the program from the outside.

Spans are recorded only by wrappers this package installs around the
public entry points of each layer (and restores afterwards); nothing
inside ``repro`` is edited or asked to trace itself.  A span is
``[name, start, end, parent, rid]``: ``name`` is ``"<layer>/<what>"``,
``parent`` is the index of the enclosing span on the same thread, and
``rid`` is the request id that links spans of one request across
threads and processes.  Spans stay in memory until :meth:`Tracer.dump`
writes them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import defaultdict

UNATTRIBUTED = "unattributed"


class Tracer:
    """Span store plus the patch bookkeeping of the wrappers it installs."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid=None) -> int | None:
        """Start a span on this thread; ``None`` while tracing is off."""
        if not self.enabled:
            return None
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None, rid]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int | None, name: str | None = None) -> None:
        if index is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        # Children left open (an abandoned generator, an exception between
        # a synthetic open and its close) end where their parent ends.
        while stack:
            top = stack.pop()
            if self.spans[top][2] is None:
                self.spans[top][2] = end
            if top == index:
                break
        if name is not None:
            self.spans[index][0] = name

    def record(self, name: str, start: float, end: float, rid=None,
               nested: bool = True) -> None:
        """Add a finished span measured elsewhere (e.g. a queue wait).

        ``nested=False`` records it without a parent, for an interval
        that began before the current span did.
        """
        if not self.enabled:
            return
        stack = self._stack()
        parent = stack[-1] if stack and nested else None
        with self._lock:
            self.spans.append([name, start, end, parent, rid])

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        index = self.open(name, rid)
        try:
            yield
        finally:
            self.close(index)

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original.

        On a class only attributes defined by the class itself are
        patched, so restoring cannot shadow an inherited one.
        """
        if isinstance(owner, type) and attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} does not define {attr!r}")
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = original
        self.patch(owner, attr, traced)

    def wrap_everywhere(self, obj, name: str, prefix: str = "repro") -> None:
        """Wrap ``obj`` in every loaded ``prefix`` module binding it.

        Functions imported with ``from x import f`` are looked up in the
        importing module's globals, so each binding is patched.
        """
        bindings = [(module, attr) for mod_name, module in list(sys.modules.items())
                    if module is not None and (mod_name == prefix
                                               or mod_name.startswith(prefix + "."))
                    for attr, value in list(vars(module).items()) if value is obj]
        for module, attr in bindings:
            self.wrap(module, attr, name)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def layer_of(name: str) -> str:
    return name.split("/", 1)[0]


def span_table(spans: list[list], roots=None) -> dict:
    """Per-span-name and per-layer calls, busy time and self time.

    Self time is a span's duration minus the time its child spans
    cover.  With ``roots`` (span indices) given, only their subtrees
    count and the roots' own self time is reported as ``unattributed``,
    so every layer's self time plus ``unattributed`` adds up to the
    roots' total.  A layer's busy time counts spans not nested inside
    another span of the same layer, so recursion is not double counted.
    """
    children_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None and end is not None:
            children_time[parent] += end - start
    keep = None
    if roots is not None:
        keep = set(roots)
        for index, span in enumerate(spans):
            if span[3] in keep:
                keep.add(index)
    by_name: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_layer: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent, _) in enumerate(spans):
        if end is None or (keep is not None and index not in keep):
            continue
        duration = end - start
        self_time = duration - children_time[index]
        if roots is not None and index in roots:
            by_layer[UNATTRIBUTED]["s"] += duration
            by_layer[UNATTRIBUTED]["self_s"] += self_time
            continue
        layer = layer_of(name)
        row = by_name[name]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += self_time
        lrow = by_layer[layer]
        lrow["calls"] += 1
        lrow["self_s"] += self_time
        ancestor = parent
        while ancestor is not None and layer_of(spans[ancestor][0]) != layer:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            lrow["s"] += duration
    return {"names": dict(by_name), "layers": dict(by_layer)}


def format_table(table: dict, total_s: float | None = None, top: int = 25) -> str:
    """Human-readable layer table, then the ``top`` spans by self time.

    Layer self times (with ``unattributed``) add up to ``total_s``.
    """
    denominator = total_s or sum(r["self_s"] for r in table["layers"].values()) or 1.0
    lines = [f"{'layer':<34} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'self%':>7}"]

    def rows(items):
        for key, row in sorted(items, key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"{key:<34} {row['calls']:>9} {row['s']:>10.4f} "
                         f"{row['self_s']:>10.4f} {100 * row['self_s'] / denominator:>6.1f}%")

    rows(table["layers"].items())
    self_sum = sum(r["self_s"] for r in table["layers"].values())
    lines.append(f"{'sum of self':<34} {'':>9} {'':>10} {self_sum:>10.4f}"
                 + (f"   (end-to-end {total_s:.4f} s)" if total_s else ""))
    lines.append(f"{'span':<34} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'self%':>7}")
    rows(sorted(table["names"].items(), key=lambda kv: -kv[1]["self_s"])[:top])
    return "\n".join(lines)
