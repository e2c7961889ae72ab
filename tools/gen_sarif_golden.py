#!/usr/bin/env python
"""Regenerate ``tests/lint/data/sarif_golden.json``.

The golden file pins the SARIF emitter's exact bytes for the fixture
tree used by ``tests/lint/test_sarif.py::TestRendering::test_golden_file``.
Run this (from the repo root, ``PYTHONPATH=src``) after a deliberate
change to the emitter, then review the diff like any other change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "lint"))


def main() -> int:
    import conftest
    import test_sarif

    from repro.lint.rules import select_rules
    from repro.lint.sarif import render_sarif

    golden = REPO_ROOT / "tests" / "lint" / "data" / "sarif_golden.json"
    with tempfile.TemporaryDirectory() as tmp:
        project = conftest.FixtureProject(Path(tmp))
        report = test_sarif._dirty_report(project)
        rendered = render_sarif(report, select_rules(test_sarif.RULE_IDS))
    golden.parent.mkdir(parents=True, exist_ok=True)
    golden.write_text(rendered + "\n", encoding="utf-8")
    print(f"wrote {golden} ({len(report.violations)} result(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
