"""Unit tests for the whole-project lint index."""

from __future__ import annotations

from pathlib import Path

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

        pack(0, 1)  # module-level call site
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
        assert "pack" in core.functions
        assert "Table.touch" in core.functions  # methods use qualnames

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


class TestCallGraph:
    def test_callers_include_cross_module_and_module_level(self, indexed):
        _, index = indexed
        callers = index.callers_of("pk.core", "pack")
        seen = {(site.module, site.function) for site in callers}
        assert ("pk.driver", "run") in seen
        assert ("pk.driver", "") in seen  # the module-level call

    def test_callees(self, indexed):
        _, index = indexed
        assert ("pk.core", "pack") in index.callees_of("pk.driver", "run")
        assert ("pk.core", "helper") in index.callees_of("pk.core", "pack")

    def test_method_calls_are_attributed(self, indexed):
        _, index = indexed
        assert ("pk.core", "helper") in index.callees_of(
            "pk.core", "Table.touch"
        )

    def test_neighborhood_reaches_guard_function(self, indexed):
        _, index = indexed
        ball = index.neighborhood("pk.core", "pack", depth=2)
        assert ("pk.driver", "run") in ball
        assert ("pk.core", "helper") in ball


class TestRealTree:
    """The index must understand the code this repo actually ships."""

    def test_width_gates_reachable_from_kernel(self):
        index = ProjectContext(Path(__file__).resolve().parents[2]).index()
        ball = index.neighborhood("repro.sim.native", "run_table_kernel")
        # The geometry gate sits three hops up (simulate_native →
        # native_supports → native_cell_ok); its word_width_ok core is
        # one hop further, so R007 relies on the in-function guard in
        # _tagged_keys instead.
        assert ("repro.sim.native", "native_cell_ok") in ball
        wide = index.neighborhood(
            "repro.sim.native", "run_table_kernel", depth=4
        )
        assert ("repro.sim.native", "word_width_ok") in wide

    def test_native_kernel_callers(self):
        index = ProjectContext(Path(__file__).resolve().parents[2]).index()
        callers = {
            (site.module, site.function)
            for site in index.callers_of("repro.sim.native", "run_table_kernel")
        }
        assert ("repro.sim.native", "simulate_native") in callers
