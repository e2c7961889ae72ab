"""The ``repro-lint`` command-line front end.

Usage::

    repro-lint src/                       # human-readable report
    repro-lint --format=json src/         # machine-readable (CI)
    repro-lint --format=sarif src/        # SARIF 2.1.0 (code scanning)
    repro-lint --rule R004 --list src/    # terse per-violation lines
    repro-lint --list-rules               # registered rules, one per line

Exit status: 0 when clean (modulo pragmas), 1 when violations or parse
errors remain, 2 on usage errors — including an unknown ``--rule`` id,
which reports the known rule ids.  Also reachable as ``PYTHONPATH=src
python -m repro.lint`` (no install needed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import LintReport, ProjectContext, lint_paths
from repro.lint.rules import all_rules, select_rules
from repro.lint.sarif import render_sarif

__all__ = ["main"]


def _render_text(report: LintReport) -> str:
    lines = [violation.render() for violation in report.violations]
    lines.extend(f"{error}: parse error" for error in report.parse_errors)
    lines.append(
        f"checked {report.checked_files} file(s): "
        f"{len(report.violations)} violation(s)"
    )
    return "\n".join(lines)


def _render_json(report: LintReport) -> str:
    payload = {
        "checked_files": report.checked_files,
        "violations": [
            {
                "rule": violation.rule_id,
                "path": violation.path,
                "line": violation.line,
                "symbol": violation.symbol,
                "message": violation.message,
            }
            for violation in report.violations
        ],
        "parse_errors": report.parse_errors,
        "clean": report.clean,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _render_list(report: LintReport) -> str:
    lines = [
        f"{violation.rule_id}\t{violation.path}:{violation.line}\t"
        f"{violation.symbol}\t{violation.message}"
        for violation in report.violations
    ]
    lines.extend(f"{error}: parse error" for error in report.parse_errors)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-lint`` command-line tool."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism, bit-width, contract, engine-parity, "
            "cache-key, kernel-test and env-var checks for the repro codebase "
            "(rules R001-R006, R009; see docs/linting.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to lint (default: ./src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="RULE",
        help="run only this rule id (repeatable), e.g. --rule R004",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "list", "sarif"),
        default="text",
        help="output format (default: text); sarif emits SARIF 2.1.0",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="shorthand for --format=list",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules (id, name, description) and exit",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root (default: discovered from the lint paths)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0

    paths: List[Path] = list(args.paths)
    if not paths:
        fallback = Path("src")
        if not fallback.is_dir():
            parser.error("no paths given and ./src does not exist")
        paths = [fallback]
    for path in paths:
        if not path.exists():
            parser.error(f"path does not exist: {path}")

    project = (
        ProjectContext(args.root)
        if args.root is not None
        else ProjectContext.discover(paths[0])
    )

    try:
        rules = select_rules(args.rule) if args.rule else all_rules()
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    report = lint_paths(paths, rules, project=project)

    output_format = "list" if args.list else args.format
    if output_format == "json":
        print(_render_json(report))
    elif output_format == "sarif":
        print(render_sarif(report, rules))
    elif output_format == "list":
        rendered = _render_list(report)
        if rendered:
            print(rendered)
    else:
        print(_render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
