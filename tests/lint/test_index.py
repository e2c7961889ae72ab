"""Unit tests for the whole-project lint index."""

from __future__ import annotations

import pytest

from repro.lint.engine import ProjectContext


@pytest.fixture
def indexed(project):
    project.write(
        "src/pk/__init__.py",
        """
        from pk.core import WIDTH, pack
        """,
    )
    project.write(
        "src/pk/core.py",
        """
        WIDTH = 64
        NAME = "core"

        def helper(x):
            return x + 1

        def pack(stream, bits):
            return helper(stream) << bits

        class Table:
            def touch(self):
                return helper(0)
        """,
    )
    project.write(
        "src/pk/driver.py",
        """
        from pk.core import pack, WIDTH
        from pk import helper_missing  # unresolvable, must not crash

        LIMIT = WIDTH

        def run(stream, bits):
            if bits <= WIDTH:
                return pack(stream, bits)
            return None
        """,
    )
    return project, ProjectContext(project.root).index()


class TestModuleTable:
    def test_modules_keyed_by_dotted_name(self, indexed):
        _, index = indexed
        assert {"pk", "pk.core", "pk.driver"} <= set(index.modules)

    def test_symbols_and_functions(self, indexed):
        _, index = indexed
        core = index.module("pk.core")
        assert {"WIDTH", "NAME", "helper", "pack", "Table"} <= set(core.symbols)

    def test_constants_capture_literals_only(self, indexed):
        _, index = indexed
        core = index.module("pk.core")
        assert core.constants["WIDTH"] == 64
        assert core.constants["NAME"] == "core"
        driver = index.module("pk.driver")
        # LIMIT = WIDTH is a name, not a literal
        assert "LIMIT" not in driver.constants

    def test_module_for_path(self, indexed):
        project, index = indexed
        info = index.module_for_path("src/pk/core.py")
        assert info is not None and info.name == "pk.core"


class TestResolution:
    def test_from_import_resolves(self, indexed):
        _, index = indexed
        assert index.resolve("pk.driver", "pack") == ("pk.core", "pack")

    def test_local_symbol_resolves_to_self(self, indexed):
        _, index = indexed
        assert index.resolve("pk.core", "helper") == ("pk.core", "helper")

    def test_reexport_hop(self, indexed):
        _, index = indexed
        # pk/__init__ re-exports pack from pk.core
        project_module = index.module("pk")
        assert project_module.imports["pack"] == "pk.core.pack"
        assert index.resolve("pk", "pack") == ("pk.core", "pack")

    def test_unknown_name_is_none(self, indexed):
        _, index = indexed
        assert index.resolve("pk.driver", "nonexistent") is None
        assert index.resolve("no.such.module", "pack") is None

    def test_constant_resolves_through_import(self, indexed):
        _, index = indexed
        assert index.resolve_constant("pk.driver", "WIDTH") == 64
        assert index.resolve_constant("pk.core", "WIDTH") == 64
        assert index.resolve_constant("pk.driver", "missing") is None
