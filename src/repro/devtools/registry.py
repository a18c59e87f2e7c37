"""Rule registry and the lint driver.

A rule is a callable ``rule(project, config) -> iterable[Finding]``
registered under its ``REPxxx`` id via the :func:`rule` decorator.
:func:`run_rules` runs a selection over a parsed project and applies
pragma suppression; :func:`run_lint` is the CLI entry point
(load, run, print, exit code).
"""

from __future__ import annotations

from .config import LintConfig, default_config
from .findings import filter_findings
from .project import Project

__all__ = ["Rule", "RULES", "rule", "run_rules", "run_lint"]


class Rule:
    """One registered rule: id, one-line summary, and the check callable."""

    def __init__(self, rule_id: str, summary: str, check):
        self.rule_id = rule_id
        self.summary = summary
        self.check = check

    def __call__(self, project: Project, config: LintConfig):
        return self.check(project, config)

    def __repr__(self) -> str:
        return f"Rule({self.rule_id}: {self.summary})"


#: rule id -> Rule.  Populated at import time by @rule decorators (the
#: import lock serializes registration; nothing mutates this afterwards).
RULES: dict = {}


def rule(rule_id: str, summary: str):
    """Register ``check(project, config)`` under ``rule_id``."""
    def decorator(check):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, summary, check)
        return check
    return decorator


def run_rules(project: Project, config: LintConfig | None = None,
              rule_ids=None):
    """Run selected rules over ``project``; returns suppressed-filtered,
    sorted findings."""
    from . import rules as _rules  # noqa: F401  (ensure registration)

    config = config or default_config()
    selected = sorted(rule_ids or RULES)
    unknown = [rid for rid in selected if rid not in RULES]
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(unknown)}")
    findings = []
    for rule_id in selected:
        findings.extend(RULES[rule_id](project, config))
    disabled_by_file = {info.rel: info.disabled for info in project.modules}
    return filter_findings(findings, disabled_by_file)


def run_lint(root: str, rule_ids=None, config: LintConfig | None = None,
             out=None) -> int:
    """Lint ``root``; print findings to ``out``; return the exit code
    (0 clean, 1 findings)."""
    import sys

    out = out or sys.stdout
    project = Project.load(root)
    findings = run_rules(project, config=config, rule_ids=rule_ids)
    for finding in findings:
        print(finding.render(), file=out)
    checked = len(project.modules)
    ran = sorted(rule_ids or RULES)
    if findings:
        print(f"repro lint: {len(findings)} finding(s) in {checked} files "
              f"({', '.join(ran)})", file=out)
        return 1
    print(f"repro lint: clean — {checked} files, rules {', '.join(ran)}",
          file=out)
    return 0
