"""The env-var registry: typed accessors, hygiene, docs-table sync."""

from __future__ import annotations

from pathlib import Path

from repro.util import envvars

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


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
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert envvars.CELL_TIMEOUT.float_value() == 2.5
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        assert envvars.CELL_TIMEOUT.float_value(300.0) == 300.0

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
