"""Static-analysis devtools for the repro codebase.

The concurrent serving stack rests on hand-documented invariants: a
ranked lock hierarchy, a simulated-clock rule for router logic,
lock-guarded module globals, and keeping the slow ``ufunc.at`` scatters
out of the kernel hot paths.  This package machine-checks those
invariants over ``src/repro`` using only the stdlib ``ast`` module.

Entry points
------------
* ``python -m repro lint`` — run every registered rule over ``src/repro``
  and exit non-zero on findings (see :func:`repro.devtools.registry.run_lint`);
* :data:`repro.devtools.locks.LOCK_HIERARCHY` — the machine-readable
  lock-ranking table; the prose in :mod:`repro.serve.service` is kept in
  sync with it by a tier-1 test;
* :class:`repro.devtools.runtime.LockOrderGuard` — a debug-mode dynamic
  witness for the static lock-order rule, used by the tier-2 stress
  suite.

Suppression: a line ending in ``# repro: disable=REP001`` (or a
comma-separated list, or ``all``) suppresses findings on that line;
the gate requires zero findings.

Each rule stays only while it catches a bug class that the runtime
tests miss; its module docstring names that class and a planted
mutation which tier-1 (without ``tests/devtools``) leaves green.
"""

from .findings import Finding
from .locks import LOCK_HIERARCHY, LockSpec, render_lock_table
from .registry import RULES, run_lint, run_rules
from .runtime import LockOrderGuard

# Import for the registration side effect: each module adds its rules to
# RULES at import time.
from . import rules  # noqa: F401  (registers REP001, REP002, REP003, REP005, REP006)

__all__ = [
    "Finding",
    "LOCK_HIERARCHY",
    "LockSpec",
    "render_lock_table",
    "RULES",
    "run_lint",
    "run_rules",
    "LockOrderGuard",
]
