"""Finding records and pragma suppression.

A :class:`Finding` is one rule violation at one source line.  Findings
are suppressed only by an inline pragma on the offending line::

    something_suspicious()  # repro: disable=REP002
    another_thing()         # repro: disable=REP001, REP003
    escape_hatch()          # repro: disable=all
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Finding", "parse_pragmas", "filter_findings"]


#: ``# repro: disable=REP001`` / ``disable=REP001, REP002`` / ``disable=all``
_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*disable=((?:REP\d+|all)(?:\s*,\s*(?:REP\d+|all))*)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: ``file:line  RULE  message``."""

    file: str
    line: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule_id}: {self.message}"


def parse_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Map line number (1-based) -> rule ids disabled on that line.

    The sentinel id ``"all"`` disables every rule on the line.
    """
    disabled: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match:
            ids = frozenset(part.strip() for part in match.group(1).split(","))
            disabled[lineno] = ids
    return disabled


def filter_findings(findings, disabled_by_file: dict[str, dict[int, frozenset[str]]]
                    ) -> list[Finding]:
    """Drop pragma-suppressed findings; sort the rest."""
    kept = []
    for finding in findings:
        ids = disabled_by_file.get(finding.file, {}).get(finding.line, ())
        if finding.rule_id not in ids and "all" not in ids:
            kept.append(finding)
    return sorted(kept)
