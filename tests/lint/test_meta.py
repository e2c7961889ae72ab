"""Meta test: the real repository lints clean.

This is the acceptance gate in executable form — if a change introduces
an unseeded RNG, an unmasked index function, a figure module outside
the runner contract, an untested vectorized entry point, or a cache-key
gap, this test fails locally before CI does.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import ProjectContext, lint_paths
from repro.lint.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRealTree:
    def test_src_lints_clean(self):
        report = lint_paths(
            [REPO_ROOT / "src"],
            all_rules(),
            project=ProjectContext(REPO_ROOT),
        )
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.clean, f"repro-lint found violations:\n{rendered}"
        assert report.checked_files > 50
