"""The env-var registry: typed accessors, hygiene, docs-table sync, and
no environment read outside it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.util import envvars

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
REGISTRY_MODULE = PACKAGE / "util" / "envvars.py"


class TestAccessors:
    def test_unset_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert envvars.JOBS.raw() is None
        assert envvars.JOBS.text() == ""
        assert not envvars.JOBS.is_set()
        assert envvars.JOBS.int_value(7) == 7
        assert not envvars.JOBS.disabled()

    def test_int_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 4 ")
        assert envvars.JOBS.int_value() == 4
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert envvars.JOBS.int_value(1) == 1

    def test_float_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_LINGER_MS", "2.5")
        assert envvars.SERVING_LINGER_MS.float_value() == 2.5
        monkeypatch.setenv("REPRO_SERVING_LINGER_MS", "soon")
        assert envvars.SERVING_LINGER_MS.float_value(5.0) == 5.0

    def test_disabled_accepts_documented_off_values(self, monkeypatch):
        for value in ("0", "off", "NONE", " Disabled "):
            monkeypatch.setenv("REPRO_TRACE_CACHE", value)
            assert envvars.TRACE_CACHE.disabled()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "cache-dir")
        assert not envvars.TRACE_CACHE.disabled()


class TestRegistry:
    def test_sorted_unique_and_typed(self):
        names = [var.name for var in envvars.REGISTRY]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        for var in envvars.REGISTRY:
            assert var.name.startswith("REPRO_")
            assert var.type in envvars.TYPES
            assert var.doc.strip()

    def test_every_declaration_is_registered(self):
        declared = {
            value for value in vars(envvars).values()
            if isinstance(value, envvars.EnvVar)
        }
        assert declared == set(envvars.REGISTRY)

    def test_by_name_round_trips(self):
        table = envvars.by_name()
        assert set(table) == {var.name for var in envvars.REGISTRY}
        assert table["REPRO_JOBS"] is envvars.JOBS


class TestDocsSync:
    def test_api_md_embeds_the_generated_table(self):
        """docs/api.md carries markdown_table() verbatim between the
        markers; regenerate with `python -m repro.util.envvars`."""
        text = (REPO_ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert envvars.markdown_table() in text
        assert text.count(envvars.TABLE_BEGIN) == 1
        assert text.count(envvars.TABLE_END) == 1


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def stray_reads(source: str):
    """Line numbers of environment reads in ``source`` that are not of a
    literal, non-``REPRO_`` name.

    A read is ``os.environ.get/setdefault/pop``, ``os.getenv``,
    ``os.environ[...]`` or ``... in os.environ``.  Only another tool's
    variable, named literally (``XDG_CACHE_HOME``), may be read outside
    the registry; a name held in a variable could be a ``REPRO_`` one.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        name = None
        if isinstance(node, ast.Call) and node.args:
            callee = _dotted(node.func)
            if callee.endswith(
                ("environ.get", "environ.setdefault", "environ.pop", "getenv")
            ):
                name = node.args[0]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if _dotted(node.value).endswith("environ"):
                name = node.slice
        elif isinstance(node, ast.Compare) and isinstance(
            node.ops[0], (ast.In, ast.NotIn)
        ):
            if _dotted(node.comparators[0]).endswith("environ"):
                name = node.left
        if name is None:
            continue
        literal = isinstance(name, ast.Constant) and isinstance(name.value, str)
        if not literal or name.value.startswith("REPRO_"):
            found.append(node.lineno)
    return found


class TestNoStrayReads:
    """Every ``REPRO_*`` read goes through the registry, so its default
    and its docs row cannot drift from the value the code uses."""

    def test_only_the_registry_reads_repro_variables(self):
        modules = sorted(PACKAGE.rglob("*.py"))
        assert REGISTRY_MODULE in modules
        offenders = {
            str(path.relative_to(PACKAGE)): lines
            for path in modules
            if path != REGISTRY_MODULE
            and (lines := stray_reads(path.read_text(encoding="utf-8")))
        }
        assert not offenders, offenders

    @pytest.mark.parametrize(
        "source",
        [
            'os.environ.get("REPRO_JOBS")',
            'os.getenv("REPRO_JOBS", "1")',
            'os.environ["REPRO_JOBS"]',
            '"REPRO_JOBS" in os.environ',
            "os.environ.get(CACHE_ENV_VAR)",
            'from os import environ\nenviron.get("REPRO_FAULTS")',
        ],
    )
    def test_detector_flags(self, source):
        assert stray_reads(source)

    def test_detector_passes_other_tools_variables(self):
        assert not stray_reads(
            'os.environ.get("XDG_CACHE_HOME")\n"CC" in os.environ\n'
            "env = dict(os.environ)"
        )
