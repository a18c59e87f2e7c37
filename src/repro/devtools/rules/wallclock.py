"""REP002: wall-clock reads are banned outside the explicit allowlist.

The router/serving logic is tested against a *simulated* clock — the
deadline unit is the tick, and only the server's ticker thread maps
ticks to real time.  Any other ``time.time()``/``monotonic()``/
``perf_counter()``/``sleep()`` call makes behaviour scheduler-dependent
and untestable, so it is a finding unless the file is allowlisted
(tickers, CLI benchmarks, epoch-timing telemetry) or the line carries a
``# repro: disable=REP002`` pragma.

Why it stays: no runtime test notices a wall-clock read that does not
change a result yet.  Planted as ``self.last_submit_s =
time.monotonic()`` in ``BatchingRouter.submit``, it left tier-1 (run
without ``tests/devtools``) green; only REP002 fired.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..registry import rule

_BANNED = frozenset({
    "time", "monotonic", "perf_counter", "sleep",
    "time_ns", "monotonic_ns", "perf_counter_ns",
})


def _time_aliases(tree: ast.Module) -> tuple[set, set]:
    """(names bound to the ``time`` module, names bound to banned members)."""
    module_aliases: set = set()
    member_aliases: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    module_aliases.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _BANNED:
                    member_aliases.add(alias.asname or alias.name)
    return module_aliases, member_aliases


@rule("REP002", "wall-clock calls (time.time/monotonic/perf_counter/sleep) "
                "only in allowlisted files — serve logic is simulated-clock")
def check_wallclock(project, config):
    findings = []
    for info in project.modules:
        if info.rel in config.wallclock_allowlist:
            continue
        module_aliases, member_aliases = _time_aliases(info.tree)
        if not module_aliases and not member_aliases:
            continue
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = None
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_aliases
                    and func.attr in _BANNED):
                called = f"{func.value.id}.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in member_aliases:
                called = func.id
            if called is not None:
                findings.append(Finding(
                    info.rel, node.lineno, "REP002",
                    f"wall-clock call {called}() outside the allowlist — "
                    "serve/router logic must stay simulated-clock testable"))
    return findings
