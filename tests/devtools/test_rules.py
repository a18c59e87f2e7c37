"""Each lint rule must catch its fixture's planted violations.

The fixtures under ``fixtures/`` violate one rule each on purpose; the
tests lint them with a stripped-down :class:`LintConfig` whose lock
hierarchy registers the fixture locks.  A rule that stops firing on its
fixture is broken, however clean ``src/repro`` looks.
"""

import json
import os

import pytest

from repro.devtools import LockSpec, load_baseline, run_rules
from repro.devtools.config import LintConfig
from repro.devtools.findings import Finding, parse_pragmas
from repro.devtools.project import Project
from repro.devtools.registry import RULES, rule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

FIXTURE_HIERARCHY = (
    LockSpec(10, 1, "bad_lock_order.py", "Outer", "_lock", "RLock",
             "outer fixture lock"),
    LockSpec(20, 2, "bad_lock_order.py", "Inner", "_lock", "Lock",
             "inner fixture lock"),
    LockSpec(30, 3, "bad_lock_order.py", None, "_mismatched_lock", "Lock",
             "registered-with-wrong-kind fixture lock"),
    LockSpec(40, 4, "bad_globals.py", None, "_cache_lock", "Lock",
             "fixture cache guard", guards=("_CACHE",)),
)


def fixture_project() -> Project:
    return Project.load(FIXTURES, package="fixtures")


def fixture_config(**overrides) -> LintConfig:
    defaults = dict(
        lock_hierarchy=FIXTURE_HIERARCHY,
        wallclock_allowlist=frozenset(),
        globals_allowlist=frozenset(),
        autograd_modules=("bad_autograd.py",),
        parity_reference_module="parity_reference.py",  # absent on purpose
        attr_bindings={"inner": "Inner"},
        dtype_hot_modules=("bad_dtype.py",),
    )
    defaults.update(overrides)
    return LintConfig(**defaults)


def run(rule_id, config=None, baseline=None):
    return run_rules(fixture_project(), config or fixture_config(),
                     rule_ids=[rule_id], baseline=baseline)


def messages(findings, filename):
    return [f.message for f in findings if f.file == filename]


class TestREP001LockOrder:
    def test_fixture_violations_caught(self):
        found = messages(run("REP001"), "bad_lock_order.py")
        assert len(found) == 5
        assert any("violates the lock hierarchy" in m and "rank 10" in m
                   for m in found)
        assert any("blocking call thread.join()" in m for m in found)
        assert any("blocking call work_queue.get()" in m for m in found)
        assert any("call to helper() may acquire" in m for m in found)
        assert any("self-deadlock" in m for m in found)

    def test_well_ordered_function_is_clean(self):
        project = fixture_project()
        info = project.get("bad_lock_order.py")
        bad_lines = {f.line for f in run("REP001")}
        source_lines = info.source.splitlines()
        start = next(i for i, line in enumerate(source_lines, start=1)
                     if "def well_ordered" in line)
        assert not any(line > start for line in bad_lines)


class TestREP002Wallclock:
    def test_fixture_violations_caught(self):
        found = run("REP002")
        assert [f.file for f in found] == ["bad_wallclock.py"] * 3
        assert "time.time()" in found[0].message
        assert "time.sleep()" in found[1].message
        assert "pc()" in found[2].message  # aliased from-import resolved

    def test_pragma_suppresses_the_sanctioned_line(self):
        source = fixture_project().get("bad_wallclock.py").source
        pragma_line = next(i for i, line in enumerate(
            source.splitlines(), start=1) if "disable=REP002" in line)
        assert pragma_line not in {f.line for f in run("REP002")}

    def test_allowlisted_file_is_exempt(self):
        config = fixture_config(
            wallclock_allowlist=frozenset({"bad_wallclock.py"}))
        assert run("REP002", config=config) == []


class TestREP003MutableGlobals:
    def test_fixture_violations_caught(self):
        found = messages(run("REP003"), "bad_globals.py")
        assert len(found) == 3
        assert sum("'_CACHE'" in m for m in found) == 1  # guarded one passes
        assert sum("'_COUNTERS'" in m for m in found) == 2
        assert any("rebinding via global" in m for m in found)

    def test_guarded_and_shadowed_mutations_pass(self):
        source = fixture_project().get("bad_globals.py").source
        bad_lines = {f.line for f in run("REP003")}
        for needle in ("fine: registered guard held", "local shadow: fine"):
            line = next(i for i, text in enumerate(source.splitlines(),
                                                   start=1) if needle in text)
            assert line not in bad_lines

    def test_allowlist_accepts_the_mutation(self):
        config = fixture_config(globals_allowlist=frozenset({
            ("bad_globals.py", "_CACHE"), ("bad_globals.py", "_COUNTERS")}))
        assert run("REP003", config=config) == []


class TestREP004Autograd:
    def test_fixture_violations_caught(self):
        found = messages(run("REP004"), "bad_autograd.py")
        assert len(found) == 3
        assert any("accumulates into 'y'" in m for m in found)
        assert sum("no _backward" in m for m in found) == 2

    def test_complete_op_is_clean(self):
        found = run("REP004")
        assert not any("good_add" in f.message for f in found)


class TestREP005UfuncAt:
    def test_fixture_violations_caught(self):
        found = messages(run("REP005"), "bad_ufunc_at.py")
        assert len(found) == 3  # add.at x2 + maximum.at
        assert sum("np.add.at scatter outside" in m for m in found) == 2
        assert sum("np.maximum.at scatter outside" in m for m in found) == 1

    def test_scatter_fallback_is_flagged(self):
        # No function is exempt from the ufunc.at ban outside the one
        # allowed module: a fallback scatter there is flagged too.
        source = fixture_project().get("bad_ufunc_at.py").source
        line = next(i for i, text in enumerate(source.splitlines(), start=1)
                    if "no exempt fallback" in text)
        assert line in {f.line for f in run("REP005")}

    def test_allowed_module_is_exempt(self):
        config = fixture_config(parity_reference_module="bad_ufunc_at.py")
        assert run("REP005", config=config) == []


class TestREP006LockCensus:
    def test_unregistered_and_mismatched_locks_caught(self):
        found = messages(run("REP006"), "bad_lock_order.py")
        assert len(found) == 2
        assert any("_rogue_lock" in m and "not registered" in m
                   for m in found)
        assert any("_mismatched_lock" in m
                   and "registered as Lock but created as threading.RLock()"
                   in m for m in found)

    def test_stale_hierarchy_entry_caught(self):
        ghost = LockSpec(90, 5, "bad_globals.py", None, "_ghost_lock",
                         "Lock", "entry with no creation site")
        config = fixture_config(lock_hierarchy=FIXTURE_HIERARCHY + (ghost,))
        found = messages(run("REP006", config=config), "bad_globals.py")
        assert any("stale hierarchy entry" in m and "_ghost_lock" in m
                   for m in found)


class TestREP007Dtype:
    def test_fixture_violations_caught(self):
        found = messages(run("REP007"), "bad_dtype.py")
        assert len(found) == 6
        assert sum("hard-coded float64" in m for m in found) == 5
        assert any("np.zeros" in m and "hard-coded" in m for m in found)
        assert any(".astype" in m for m in found)
        assert any("np.empty" in m for m in found)  # aliased from-import
        assert any("np.ones" in m for m in found)   # "float64" string
        assert sum("dtype-less" in m for m in found) == 1

    def test_explicit_dtypes_are_clean(self):
        source = fixture_project().get("bad_dtype.py").source
        bad_lines = {f.line for f in run("REP007")}
        for needle in ("caller-provided dtype", "non-float payload",
                       "explicit integer dtype"):
            line = next(i for i, text in enumerate(source.splitlines(),
                                                   start=1) if needle in text)
            assert line not in bad_lines

    def test_pragma_suppresses_the_sanctioned_line(self):
        source = fixture_project().get("bad_dtype.py").source
        pragma_line = next(i for i, line in enumerate(
            source.splitlines(), start=1) if "disable=REP007" in line)
        assert pragma_line not in {f.line for f in run("REP007")}

    def test_only_hot_modules_are_checked(self):
        config = fixture_config(dtype_hot_modules=())
        assert run("REP007", config=config) == []


class TestSuppressionMachinery:
    def test_baseline_suppresses_by_location(self, tmp_path):
        findings = run("REP002")
        first = findings[0]
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps([
            {"file": first.file, "line": first.line, "rule_id": "REP002"}]))
        remaining = run("REP002", baseline=load_baseline(str(baseline_file)))
        assert first not in remaining
        assert len(remaining) == len(findings) - 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == set()
        assert load_baseline(None) == set()

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(ValueError, match="JSON list"):
            load_baseline(str(bad))

    def test_pragma_parsing(self):
        disabled = parse_pragmas(
            "a()  # repro: disable=REP001\n"
            "b()  # repro: disable=REP001, REP002\n"
            "c()  # repro: disable=all\n"
            "d()\n")
        assert disabled == {1: frozenset({"REP001"}),
                            2: frozenset({"REP001", "REP002"}),
                            3: frozenset({"all"})}

    def test_findings_sort_and_render(self):
        finding = Finding("a.py", 3, "REP001", "msg")
        assert finding.render() == "a.py:3: REP001: msg"
        assert finding.baseline_key() == ("a.py", 3, "REP001")


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert sorted(RULES) == ["REP001", "REP002", "REP003", "REP004",
                                 "REP005", "REP006", "REP007"]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="unknown rule ids: REP999"):
            run_rules(fixture_project(), fixture_config(),
                      rule_ids=["REP999"])

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule id"):
            rule("REP001", "impostor")(lambda project, config: [])
