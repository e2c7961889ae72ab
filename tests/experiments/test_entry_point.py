"""Every experiment simulates through the one dispatcher, ``simulate_fast``.

The generic interpreter stays the reference every fast tier is tested
against, and ``simulate_fast`` falls back to it for specs no fast tier
expresses.  An experiment importing it directly would open a second
simulation path that bypasses the native tier, so this test parses
every module under ``repro/experiments`` and rejects any import of
``repro.sim.engine`` or of its ``simulate`` (including the re-exports
from ``repro`` and ``repro.sim``).

The interpreter's per-event loop is itself written once: only
``sim/engine.py`` may drive a predictor through ``predict_and_update``.
The windowed, per-branch and paired analyses reduce its miss stream, so
a module under ``experiments/``, ``aliasing/`` or ``sim/`` that names
``predict_and_update`` is a second interpreter and fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
EXPERIMENTS = PACKAGE / "experiments"
#: The one module allowed to call ``predict_and_update``.
INTERPRETER = PACKAGE / "sim" / "engine.py"
STEP = "predict_and_update"

#: (module, imported name) pairs that reach the generic interpreter.
FORBIDDEN_FROM = {
    ("repro", "simulate"),
    ("repro.sim", "engine"),
    ("repro.sim", "miss_stream"),
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
        "from repro.sim import miss_stream",
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


def step_references(source: str):
    """Line numbers in ``source`` naming ``predict_and_update`` as code:
    an attribute, a bare or imported name, or a string constant
    (``getattr``)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == STEP)
        or (isinstance(node, ast.Name) and node.id == STEP)
        or (isinstance(node, ast.alias) and node.name == STEP)
        or (isinstance(node, ast.Constant) and node.value == STEP)
    ]


@pytest.mark.parametrize(
    "source",
    [
        "step = predictor.predict_and_update",
        "for pc, t in events:\n    p.predict_and_update(pc, t)",
        "from somewhere import predict_and_update",
        "step = getattr(predictor, 'predict_and_update')",
    ],
)
def test_detector_catches_step_references(source):
    assert step_references(source)


def test_detector_ignores_prose():
    assert not step_references(
        '"""Mirrors :meth:`Predictor.predict_and_update`."""\n'
        "# predict_and_update pushes history itself\n"
    )


def test_only_the_engine_drives_predict_and_update():
    modules = sorted(
        path
        for package in ("experiments", "aliasing", "sim")
        for path in (PACKAGE / package).rglob("*.py")
    )
    assert INTERPRETER in modules
    offenders = {
        str(path.relative_to(PACKAGE)): lines
        for path in modules
        if path != INTERPRETER
        and (lines := step_references(path.read_text(encoding="utf-8")))
    }
    assert not offenders, offenders
    assert step_references(INTERPRETER.read_text(encoding="utf-8"))
