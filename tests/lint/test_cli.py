"""CLI behavior of ``repro-lint`` (exit codes, formats, rule selection)."""

from __future__ import annotations

import json

from repro.lint.cli import main

#: Every registered rule id (R007 was retired; its number is not reused).
RULE_IDS = ["R001", "R002", "R003", "R004", "R005", "R006", "R009"]

BAD_RNG = """
import random

def bad():
    return random.random()
"""


def _write_bad_project(project):
    project.write("src/repro/bad.py", BAD_RNG)


def _run(project, *argv):
    return main([*argv, "--root", str(project.root), str(project.root / "src")])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        project.write("src/repro/ok.py", "X = 1\n")
        assert _run(project) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violations_exit_one(self, project, capsys):
        _write_bad_project(project)
        assert _run(project) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "bad.py" in out

    def test_missing_path_is_usage_error(self, project, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main([str(project.root / "nowhere")])
        assert excinfo.value.code == 2


class TestFormats:
    def test_json_format(self, project, capsys):
        _write_bad_project(project)
        assert _run(project, "--format=json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["checked_files"] == 1
        [violation] = payload["violations"]
        assert violation["rule"] == "R001"
        assert violation["path"] == "src/repro/bad.py"
        assert violation["symbol"] == "bad"

    def test_sarif_format(self, project, capsys):
        _write_bad_project(project)
        assert _run(project, "--format=sarif") == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        [result] = run["results"]
        assert result["ruleId"] == "R001"
        artifact = result["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]
        assert artifact["uri"] == "src/repro/bad.py"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == RULE_IDS

    def test_list_format(self, project, capsys):
        _write_bad_project(project)
        assert _run(project, "--list") == 1
        line = capsys.readouterr().out.strip()
        rule, location, symbol, _message = line.split("\t")
        assert rule == "R001"
        assert location.startswith("src/repro/bad.py:")
        assert symbol == "bad"

        # A parse error is printed too, not just reflected in the exit
        # status; --format=list is the same output.
        project.write("src/repro/broken.py", "def oops(:\n")
        for flag in ("--list", "--format=list"):
            assert _run(project, flag) == 1
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 2
            assert lines[0].startswith("R001\t")
            assert lines[1].startswith("src/repro/broken.py: ")
            assert lines[1].endswith(": parse error")


class TestRuleSelection:
    def test_rule_filter_skips_other_rules(self, project):
        _write_bad_project(project)
        assert _run(project, "--rule", "R003") == 0
        assert _run(project, "--rule", "R001") == 1

    def test_unknown_rule_is_usage_error(self, project, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            _run(project, "--rule", "R999")
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown rule 'R999'" in err
        for rule_id in RULE_IDS:
            assert rule_id in err

    def test_list_rules_prints_registry_and_exits_zero(self, capsys):
        assert main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == RULE_IDS
        assert any("env-var-contract" in line for line in lines)

    def test_list_rules_needs_no_paths(self, tmp_path, capsys, monkeypatch):
        # works even where ./src does not exist (no usage error)
        monkeypatch.chdir(tmp_path)
        assert main(["--list-rules"]) == 0
        capsys.readouterr()

