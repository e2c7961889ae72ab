"""Engine behavior: pragmas, file collection, parse errors, registry."""

from __future__ import annotations

import pytest

from repro.lint.engine import ProjectContext, Violation, lint_paths
from repro.lint.rules import all_rules, rules_by_id, select_rules

RULE_IDS = ["R001", "R002", "R003", "R004", "R005", "R006", "R009"]

#: "été" in Latin-1: not valid UTF-8, so not valid Python source.
LATIN1_SOURCE = b"NAME = '\xe9t\xe9'\n"

BAD_RNG = """
import random

def bad():
    return random.random()
"""


class TestPragmas:
    def test_line_pragma_suppresses_one_finding(self, project):
        project.write(
            "src/repro/a.py",
            """
            import random

            def bad():
                one = random.random()  # repro-lint: disable=R001
                two = random.random()
                return one + two
            """,
        )
        report = project.lint(["R001"])
        assert len(report.violations) == 1
        assert report.violations[0].line == 6

    def test_line_pragma_takes_a_rule_list(self, project):
        project.write(
            "src/repro/a.py",
            """
            import random

            def bad():
                return random.random()  # repro-lint: disable=R002,R001
            """,
        )
        assert project.lint(["R001"]).clean

    def test_file_pragma_suppresses_whole_file(self, project):
        project.write(
            "src/repro/a.py",
            """
            # repro-lint: disable-file=R001
            import random

            def bad():
                return random.random() + random.random()
            """,
        )
        assert project.lint(["R001"]).clean

    def test_disable_all(self, project):
        project.write(
            "src/repro/a.py",
            """
            import random

            def bad():
                return random.random()  # repro-lint: disable=all
            """,
        )
        assert project.lint(["R001"]).clean

    def test_pragma_on_other_line_does_not_suppress(self, project):
        project.write(
            "src/repro/a.py",
            """
            import random
            # repro-lint: disable=R001

            def bad():
                return random.random()
            """,
        )
        assert len(project.lint(["R001"]).violations) == 1


class TestEngine:
    def test_parse_error_is_reported_and_fails(self, project):
        project.write("src/repro/broken.py", "def broken(:\n")
        project.write("src/repro/fine.py", "X = 1\n")
        report = project.lint(["R001"])
        assert not report.clean
        assert len(report.parse_errors) == 1
        assert "broken.py" in report.parse_errors[0]
        assert report.checked_files == 1

    def test_non_utf8_source_file_is_a_parse_error(self, project):
        # R009 parses every file under src/ into the project index, so
        # the undecodable file is read whether or not it is linted.
        project.write("src/repro/fine.py", "X = 1\n")
        (project.root / "src/repro/latin1.py").write_bytes(LATIN1_SOURCE)

        report = project.lint()
        assert report.checked_files == 1
        [error] = report.parse_errors  # linted and indexed: one entry
        assert error.startswith("src/repro/latin1.py: ")
        assert "utf-8" in error

        only_fine = lint_paths(
            [project.root / "src/repro/fine.py"],
            all_rules(),
            project=ProjectContext(project.root),
        )
        assert not only_fine.clean
        assert only_fine.parse_errors == [error]

    def test_non_utf8_test_file_is_a_parse_error(self, project):
        # R004 searches the text of every test file for references.
        project.write(
            "src/repro/sim/vectorized.py",
            """
            __all__ = ["fn"]

            def fn():
                return 1
            """,
        )
        project.write("tests/test_equiv.py", "from repro.sim.vectorized import fn\n")
        (project.root / "tests/test_latin1.py").write_bytes(LATIN1_SOURCE)

        report = project.lint(["R004"])
        assert report.violations == []  # the readable test still counts
        [error] = report.parse_errors
        assert error.startswith("tests/test_latin1.py: ")

    def test_pycache_and_git_dirs_skipped(self, project):
        project.write("src/repro/__pycache__/junk.py", BAD_RNG)
        project.write("src/repro/ok.py", "X = 1\n")
        report = project.lint(["R001"])
        assert report.clean and report.checked_files == 1

    def test_violation_fingerprint_ignores_line(self):
        a = Violation("R003", "src/x.py", 10, "run", "msg")
        b = Violation("R003", "src/x.py", 99, "run", "msg")
        assert a.fingerprint == b.fingerprint

    def test_render_format(self):
        violation = Violation("R001", "src/x.py", 7, "f", "msg")
        assert violation.render() == "src/x.py:7: R001 [f]: msg"


class TestRuleRegistry:
    def test_all_rules_registered(self):
        assert [rule.rule_id for rule in all_rules()] == RULE_IDS

    def test_descriptions_present(self):
        for rule in all_rules():
            assert rule.name and rule.description

    def test_select_rules(self):
        assert [r.rule_id for r in select_rules(["r004", "R001"])] == [
            "R001",
            "R004",
        ]
        with pytest.raises(KeyError):
            select_rules(["R999"])
        assert sorted(rules_by_id()) == RULE_IDS
