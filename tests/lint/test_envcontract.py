"""R009 env-var contract: registry routing, undeclared names, hygiene."""

from __future__ import annotations

import pytest

REGISTRY = """
from dataclasses import dataclass


@dataclass(frozen=True)
class EnvVar:
    name: str
    type: str
    default: str
    doc: str


JOBS = EnvVar("REPRO_JOBS", "int", "1", "worker processes for sweeps")
FAULTS = EnvVar("REPRO_FAULTS", "plan", "", "fault-injection plan")
"""


def r009(report):
    return [v for v in report.violations if v.rule_id == "R009"]


def write_registry(project):
    project.write("src/repro/__init__.py", "")
    project.write("src/repro/util/__init__.py", "")
    project.write("src/repro/util/envvars.py", REGISTRY)


class TestStrayReads:
    def test_environ_get_fires(self, project):
        write_registry(project)
        project.write(
            "src/reader.py",
            """
            import os

            def jobs():
                return os.environ.get("REPRO_JOBS", "1")
            """,
        )
        violations = r009(project.lint(["R009"]))
        assert len(violations) == 1
        assert violations[0].symbol == "REPRO_JOBS"
        assert "direct environment read" in violations[0].message

    def test_getenv_and_subscript_and_contains_fire(self, project):
        write_registry(project)
        project.write(
            "src/reader.py",
            """
            import os
            from os import environ

            def read():
                a = os.getenv("REPRO_JOBS")
                b = environ["REPRO_FAULTS"]
                c = "REPRO_JOBS" in os.environ
                return a, b, c
            """,
        )
        assert len(r009(project.lint(["R009"]))) == 3

    def test_name_resolved_through_project_constant(self, project):
        write_registry(project)
        project.write("src/names.py", 'JOBS_VAR = "REPRO_JOBS"\n')
        project.write(
            "src/reader.py",
            """
            import os

            from names import JOBS_VAR

            def jobs():
                return os.environ.get(JOBS_VAR)
            """,
        )
        violations = r009(project.lint(["R009"]))
        assert len(violations) == 1
        assert violations[0].symbol == "REPRO_JOBS"

    def test_undeclared_name_gets_registry_message(self, project):
        write_registry(project)
        project.write(
            "src/reader.py",
            """
            import os

            def secret():
                return os.environ.get("REPRO_UNDECLARED")
            """,
        )
        violations = r009(project.lint(["R009"]))
        assert len(violations) == 1
        assert "not declared in repro.util.envvars" in violations[0].message

    def test_non_repro_variables_ignored(self, project):
        write_registry(project)
        project.write(
            "src/reader.py",
            """
            import os

            def cc():
                return os.environ.get("CC", "cc"), os.environ["HOME"]
            """,
        )
        assert r009(project.lint(["R009"])) == []

    def test_registry_module_itself_may_read(self, project):
        write_registry(project)
        project.write(
            "src/repro/util/envvars.py",
            REGISTRY
            + """

import os


def raw(name):
    return os.environ.get(name)
""",
        )
        assert r009(project.lint(["R009"])) == []

    def test_pragma_silences(self, project):
        write_registry(project)
        project.write(
            "src/reader.py",
            """
            import os

            def jobs():
                return os.environ.get("REPRO_JOBS")  # repro-lint: disable=R009
            """,
        )
        assert r009(project.lint(["R009"])) == []


class TestRegistryHygiene:
    def test_missing_doc_fires(self, project):
        write_registry(project)
        project.write(
            "src/repro/util/envvars.py",
            REGISTRY.replace(
                '"int", "1", "worker processes for sweeps"',
                '"int", "1", ""',
            ),
        )
        violations = r009(project.lint(["R009"]))
        assert len(violations) == 1
        assert "without a docstring" in violations[0].message

    def test_foreign_namespace_fires(self, project):
        write_registry(project)
        project.write(
            "src/repro/util/envvars.py",
            REGISTRY.replace('"REPRO_FAULTS"', '"OTHER_FAULTS"'),
        )
        violations = r009(project.lint(["R009"]))
        assert len(violations) == 1
        assert "outside the REPRO_ namespace" in violations[0].message

    def test_duplicate_declaration_fires(self, project):
        write_registry(project)
        project.write(
            "src/repro/util/envvars.py",
            REGISTRY.replace('"REPRO_FAULTS"', '"REPRO_JOBS"'),
        )
        violations = r009(project.lint(["R009"]))
        assert any("declared twice" in v.message for v in violations)


class TestRealRegistry:
    def test_real_registry_covers_every_runtime_variable(self):
        from repro.util import envvars

        names = {var.name for var in envvars.REGISTRY}
        assert {
            "REPRO_CELL_TIMEOUT",
            "REPRO_FAULTS",
            "REPRO_JOBS",
            "REPRO_NATIVE_CACHE",
            "REPRO_TRACE_CACHE",
        } <= names
        for var in envvars.REGISTRY:
            assert var.doc.strip()
            assert var.name.startswith("REPRO_")
