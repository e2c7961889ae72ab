"""SARIF 2.1.0 emitter for repro-lint reports.

SARIF (Static Analysis Results Interchange Format, OASIS standard
2.1.0) is the lingua franca of code-scanning UIs: GitHub's
``codeql-action/upload-sarif`` turns a SARIF file into inline PR
annotations, so emitting it makes every repro-lint finding show up on
the diff line it refers to instead of in a CI log nobody opens.

The mapping is deliberately small and lossless:

- each registered rule becomes a ``tool.driver.rules`` entry (id, name,
  short description), in the order the run used them, so ``ruleIndex``
  back-references work;
- each :class:`~repro.lint.engine.Violation` becomes a ``result`` with
  ``level: error`` (this linter has no warnings — a finding either
  blocks or is silenced by a pragma before rendering), the
  repo-relative artifact URI, the 1-based start line, and the
  violation's stable fingerprint under ``partialFingerprints`` — a
  rule+path+symbol+message key with no line number, so scanning UIs
  track a finding across unrelated edits;
- parse failures become ``toolExecutionNotifications`` on the
  invocation (they are not findings *in* a file the linter understood,
  and ``executionSuccessful`` reflects them).

The output is deterministic for a given report: results keep the
engine's path/line order and keys are emitted sorted, which is what
makes the golden-file test in ``tests/lint/test_sarif.py`` possible.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro import __version__
from repro.lint.engine import LintReport, Rule

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "render_sarif", "sarif_log"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

def sarif_log(report: LintReport, rules: Sequence[Rule]) -> Dict:
    """The report as a SARIF log object (JSON-ready dict)."""
    ordered = sorted(rules, key=lambda rule: rule.rule_id)
    rule_index = {rule.rule_id: i for i, rule in enumerate(ordered)}
    driver = {
        "name": "repro-lint",
        "version": __version__,
        "rules": [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "shortDescription": {"text": rule.description},
                "defaultConfiguration": {"level": "error"},
            }
            for rule in ordered
        ],
    }
    results: List[Dict] = []
    for violation in report.violations:
        result = {
            "ruleId": violation.rule_id,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {"startLine": max(violation.line, 1)},
                    }
                }
            ],
            "partialFingerprints": {
                "reproLint/v1": violation.fingerprint,
            },
        }
        if violation.rule_id in rule_index:
            result["ruleIndex"] = rule_index[violation.rule_id]
        if violation.symbol:
            result["message"]["text"] = (
                f"[{violation.symbol}] {violation.message}"
            )
        results.append(result)
    invocation: Dict = {
        "executionSuccessful": not report.parse_errors,
    }
    if report.parse_errors:
        invocation["toolExecutionNotifications"] = [
            {
                "level": "error",
                "message": {"text": f"{error}: parse error"},
            }
            for error in report.parse_errors
        ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "invocations": [invocation],
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def render_sarif(report: LintReport, rules: Sequence[Rule]) -> str:
    """The report serialized as pretty-printed SARIF 2.1.0 JSON."""
    return json.dumps(sarif_log(report, rules), indent=2, sort_keys=True)
