"""The tier-1 lint gate: ``src/repro`` must produce zero findings.

Also pins the CLI surface (exit codes, rule selection, ``--locks``) and
the promise in :mod:`repro.serve.service` that its prose lock-order
section mirrors the machine-readable table.
"""

import io
import os
import re
import subprocess
import sys

import pytest

import repro
import repro.serve.service
from repro import cli
from repro.devtools import (
    LOCK_HIERARCHY,
    render_lock_table,
    run_lint,
    run_rules,
)
from repro.devtools.project import Project

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

pytestmark = pytest.mark.lint


class TestZeroFindingsGate:
    def test_package_tree_is_clean(self):
        findings = run_rules(Project.load(PACKAGE_ROOT))
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_run_lint_exit_code_and_summary(self):
        out = io.StringIO()
        assert run_lint(PACKAGE_ROOT, out=out) == 0
        assert "repro lint: clean" in out.getvalue()

    def test_run_lint_reports_fixture_findings(self):
        out = io.StringIO()
        assert run_lint(FIXTURES, out=out) == 1
        text = out.getvalue()
        assert "finding(s)" in text
        assert "bad_wallclock.py" in text  # default config still flags these


class TestCLI:
    def test_lint_target_clean(self, capsys):
        assert cli.main(["lint"]) == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_lint_target_findings_exit_one(self, capsys):
        assert cli.main(["lint", "--path", FIXTURES]) == 1
        assert "REP002" in capsys.readouterr().out

    def test_rule_selection(self, capsys):
        assert cli.main(["lint", "--rules", "REP002"]) == 0
        out = capsys.readouterr().out
        assert "rules REP002" in out and "REP001" not in out

    def test_locks_table(self, capsys):
        assert cli.main(["lint", "--locks"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == render_lock_table().strip()
        assert "_build_lock" in out
        rows = out.strip().splitlines()[2:]
        assert len(rows) == len(LOCK_HIERARCHY) == 11
        assert {int(row.split()[1]) for row in rows} == {1, 2, 3, 4, 5}

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.dirname(PACKAGE_ROOT)})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro lint: clean" in proc.stdout


class TestLockTableDocstringSync:
    """service.py promises its prose is generated from LOCK_HIERARCHY."""

    def test_every_registered_lock_is_documented(self):
        doc = repro.serve.service.__doc__
        tiers = re.findall(r"^(\d+)\. ", doc, re.MULTILINE)
        assert tiers == [str(level) for level in
                         sorted({spec.level for spec in LOCK_HIERARCHY})]
        assert tiers == ["1", "2", "3", "4", "5"]
        for spec in LOCK_HIERARCHY:
            label = f"{spec.owner}.{spec.name}" if spec.owner else spec.name
            assert label in doc, f"{spec.qualified} missing from the prose"
            assert f"(rank {spec.rank})" in doc, (
                f"rank {spec.rank} missing from the prose")

    def test_ranks_are_unique_and_sorted_by_level(self):
        ranks = [spec.rank for spec in LOCK_HIERARCHY]
        assert len(set(ranks)) == len(ranks)
        levels = [spec.level for spec in LOCK_HIERARCHY]
        assert levels == sorted(levels)

    def test_rendered_table_lists_every_rank(self):
        table = render_lock_table()
        for spec in LOCK_HIERARCHY:
            assert spec.qualified in table
