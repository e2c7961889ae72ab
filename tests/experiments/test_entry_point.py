"""Every experiment simulates through the one dispatcher, ``simulate_fast``.

The generic interpreter stays the reference every fast tier is tested
against, and ``simulate_fast`` falls back to it for specs no fast tier
expresses.  An experiment importing it directly would open a second
simulation path that bypasses the native tier, so this test parses
every module under ``repro/experiments`` and rejects any import of
``repro.sim.engine`` or of its ``simulate`` (including the re-exports
from ``repro`` and ``repro.sim``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

EXPERIMENTS = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "experiments"
)

#: (module, imported name) pairs that reach the generic interpreter.
FORBIDDEN_FROM = {
    ("repro", "simulate"),
    ("repro.sim", "engine"),
    ("repro.sim", "simulate"),
}


def _is_engine(module: str) -> bool:
    return module == "repro.sim.engine" or module.startswith("repro.sim.engine.")


def engine_imports(source: str):
    """The imports in ``source`` that reach the generic interpreter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                alias.name for alias in node.names if _is_engine(alias.name)
            ]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _is_engine(node.module):
                found.append(node.module)
            found += [
                f"{node.module}.{alias.name}" for alias in node.names
                if (node.module, alias.name) in FORBIDDEN_FROM
            ]
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from repro.sim.engine import simulate",
        "import repro.sim.engine",
        "from repro.sim import engine",
        "from repro.sim import make_predictor, simulate",
        "from repro import simulate",
        "def f():\n    from repro.sim.engine import simulate_stream",
    ],
)
def test_detector_catches_engine_imports(source):
    assert engine_imports(source)


def test_no_experiment_imports_the_generic_engine():
    modules = sorted(EXPERIMENTS.glob("*.py"))
    assert modules
    offenders = {
        path.name: found
        for path in modules
        if (found := engine_imports(path.read_text(encoding="utf-8")))
    }
    assert not offenders, offenders
