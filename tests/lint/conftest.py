"""Shared fixtures for the repro-lint test suite.

The rule tests run the real engine over tiny synthetic project trees so
every finding (and every non-finding) is asserted against code written
for that purpose — the real ``src/`` tree is only touched by the meta
test, which asserts it lints clean.
"""

from __future__ import annotations

from pathlib import Path
from textwrap import dedent
from typing import Sequence

import pytest

from repro.lint.engine import LintReport, ProjectContext, lint_paths
from repro.lint.rules import all_rules, select_rules


class FixtureProject:
    """A throwaway project tree the linter can be pointed at."""

    def __init__(self, root: Path):
        self.root = root
        (root / "setup.cfg").write_text(
            "[metadata]\nname = fixture\n", encoding="utf-8"
        )
        (root / "src").mkdir()
        (root / "tests").mkdir()

    def write(self, rel_path: str, source: str) -> Path:
        path = self.root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source), encoding="utf-8")
        return path

    def lint(self, rule_ids: Sequence[str] = ()) -> LintReport:
        rules = select_rules(list(rule_ids)) if rule_ids else all_rules()
        return lint_paths(
            [self.root / "src"], rules, project=ProjectContext(self.root)
        )


@pytest.fixture
def project(tmp_path) -> FixtureProject:
    return FixtureProject(tmp_path)
