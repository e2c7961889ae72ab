"""SARIF 2.1.0 emitter: structure, determinism, golden round-trip."""

from __future__ import annotations

import json
from pathlib import Path

from repro import __version__
from repro.lint.sarif import (
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    render_sarif,
    sarif_log,
)

GOLDEN = Path(__file__).parent / "data" / "sarif_golden.json"

BAD_RNG = """
import random


def bad():
    return random.random()
"""

BAD_INDEX = """
def gshare_index(pc, history, index_bits):
    return pc ^ history
"""

#: The two rules the fixture tree violates, one finding each.
RULE_IDS = ["R001", "R002"]


def _dirty_report(project):
    """Two violations (R001, R002) over a deterministic fixture tree."""
    project.write("src/repro/bad.py", BAD_RNG)
    project.write("src/repro/indexing.py", BAD_INDEX)
    return project.lint(RULE_IDS)


def _dirty_log(project):
    from repro.lint.rules import select_rules

    rules = select_rules(RULE_IDS)
    return sarif_log(_dirty_report(project), rules), rules


class TestStructure:
    def test_log_envelope(self, project):
        log, _rules = _dirty_log(project)
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA_URI
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        assert run["columnKind"] == "utf16CodeUnits"
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert driver["version"] == __version__

    def test_driver_rules_are_ordered_and_described(self, project):
        log, rules = _dirty_log(project)
        entries = log["runs"][0]["tool"]["driver"]["rules"]
        assert [e["id"] for e in entries] == sorted(r.rule_id for r in rules)
        for entry in entries:
            assert entry["name"]
            assert entry["shortDescription"]["text"]
            assert entry["defaultConfiguration"] == {"level": "error"}

    def test_results_reference_rules_and_locations(self, project):
        log, _rules = _dirty_log(project)
        run = log["runs"][0]
        entries = run["tool"]["driver"]["rules"]
        results = run["results"]
        assert sorted(r["ruleId"] for r in results) == RULE_IDS
        for result in results:
            assert entries[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] == "error"
            assert result["message"]["text"].startswith("[")
            [location] = result["locations"]
            physical = location["physicalLocation"]
            artifact = physical["artifactLocation"]
            assert not artifact["uri"].startswith("/")
            assert artifact["uriBaseId"] == "%SRCROOT%"
            assert physical["region"]["startLine"] >= 1

    def test_fingerprints_match_violation_keys(self, project):
        report = _dirty_report(project)
        from repro.lint.rules import select_rules

        log = sarif_log(report, select_rules(RULE_IDS))
        emitted = {
            r["partialFingerprints"]["reproLint/v1"]
            for r in log["runs"][0]["results"]
        }
        assert emitted == {v.fingerprint for v in report.violations}

    def test_clean_report_is_successful_and_empty(self, project):
        from repro.lint.rules import all_rules

        project.write("src/repro/ok.py", "X = 1\n")
        log = sarif_log(project.lint(), all_rules())
        run = log["runs"][0]
        assert run["results"] == []
        [invocation] = run["invocations"]
        assert invocation["executionSuccessful"] is True
        assert "toolExecutionNotifications" not in invocation

    def test_parse_errors_become_notifications(self, project):
        from repro.lint.rules import all_rules

        project.write("src/repro/broken.py", "def oops(:\n")
        log = sarif_log(project.lint(), all_rules())
        [invocation] = log["runs"][0]["invocations"]
        assert invocation["executionSuccessful"] is False
        [notification] = invocation["toolExecutionNotifications"]
        assert notification["level"] == "error"
        assert "parse error" in notification["message"]["text"]


class TestRendering:
    def test_render_round_trips(self, project):
        log, rules = _dirty_log(project)
        rendered = render_sarif(_dirty_report(project), rules)
        assert json.loads(rendered) == log

    def test_render_is_deterministic(self, project):
        report = _dirty_report(project)
        from repro.lint.rules import select_rules

        rules = select_rules(RULE_IDS)
        assert render_sarif(report, rules) == render_sarif(report, rules)

    def test_golden_file(self, project):
        """The emitter's exact bytes are pinned; regenerate with
        ``python tools/gen_sarif_golden.py`` after a deliberate change."""
        from repro.lint.rules import select_rules

        rules = select_rules(RULE_IDS)
        rendered = render_sarif(_dirty_report(project), rules)
        assert rendered == GOLDEN.read_text(encoding="utf-8").rstrip("\n")
