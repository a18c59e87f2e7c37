"""Lint configuration: allowlists and per-rule knobs for ``src/repro``.

The defaults encode *this repo's* invariants; fixture tests build their
own stripped-down configs.  Paths are relative to the linted root with
``/`` separators (``serve/server.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .locks import LOCK_HIERARCHY, LockSpec

__all__ = ["LintConfig", "default_config"]


@dataclass
class LintConfig:
    """Everything a rule needs beyond the parsed sources."""

    #: the ranked lock table (REP001 / REP003 / REP006)
    lock_hierarchy: tuple[LockSpec, ...] = LOCK_HIERARCHY

    #: files where wall-clock calls are legitimate (REP002): the real-time
    #: ticker boundary, CLI benchmarks, and epoch timing telemetry.
    #: (serve/cluster.py is deliberately NOT here: its single wall-clock
    #: site — retry backoff / stall emulation in ``_wall_sleep`` — carries
    #: a per-line ``# repro: disable=REP002`` pragma so any new wall-clock
    #: use in the routing logic still trips the rule.)
    wallclock_allowlist: frozenset = frozenset({
        "serve/server.py",       # ticker thread: simulated-clock <-> real time
        "cli.py",                # benchmark targets time their own runs
        "finetune/base.py",      # per-epoch wall-time telemetry
        "experiments/runner.py",  # experiment harness timing
    })

    #: (file, global) pairs whose module-global mutation is accepted
    #: without a lock or ContextVar (REP003).
    globals_allowlist: frozenset = frozenset({
        # The rule registry is populated by @rule decorators at import
        # time only, under the interpreter's module import lock.
        ("devtools/registry.py", "RULES"),
    })

    #: the one file allowed np.add.at / np.maximum.at (REP005): the
    #: runtime fallback scatters of nn/tensor.py.
    parity_reference_module: str = "nn/tensor.py"

    #: how attribute receivers map to lock-owning classes (REP001): an
    #: attribute access like ``self.service._lock`` or a bare global like
    #: ``models`` resolves through these bindings to the owning class.
    attr_bindings: dict = field(default_factory=lambda: {
        "service": "InferenceService",
        "router": "BatchingRouter",
        "models": "ModelRegistry",
        "registry": "ModelRegistry",
        "batch_cache": "BatchCacheRegistry",
        "loader": "DataLoader",
        "protocol": "ServingProtocol",
        "serving_protocol": "ServingProtocol",
        "cluster": "ClusterRouter",
    })


def default_config() -> LintConfig:
    return LintConfig()
