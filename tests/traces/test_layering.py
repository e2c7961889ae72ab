"""The traces layer imports nothing above it at module level.

Simulation, aliasing measurement, the model, the experiments and the
serving layer all read traces, so ``repro.traces`` sits beneath them:
importing any of them at a module's top level from ``repro/traces/``
closes an import cycle (the interpreter in ``sim/engine.py`` imports
``Trace``) and loads the upper layers into every process that only
wants a trace.  The (address, history) substream the trace statistics
reduce is formed in the layer itself, by ``traces/pairs.py``.

This test parses every module under ``repro/traces`` and rejects any
module-level import of an upper layer.  An import inside a function
runs at call time, long after every package has loaded, so it closes
no cycle; each one is still listed, so that a new one is a decision:
the synthetic generator's ``from repro.sim import native`` (is the
compiled kernel built?), the pair pass's (``traces/pairs.py``: the
kernel's ``repro_pair_pass`` measures the substream where it built) and
the ``repro-trace`` tool's ``simulate`` and ``profile`` subcommands,
which run predictors.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
TRACES = PACKAGE / "traces"

#: The layers above ``repro.traces``.
UPPER = ("sim", "aliasing", "model", "experiments", "serving")

#: (module, upper layer) pairs allowed inside a function body.
ALLOWED_IN_FUNCTIONS = {
    ("synthetic/cfg.py", "sim"),
    ("synthetic/kernel.py", "sim"),
    ("pairs.py", "sim"),
    ("cli.py", "sim"),
}


def _layer(module: str):
    """The upper layer ``module`` belongs to, or None."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in UPPER:
        return parts[1]
    return None


def _imported(node) -> list:
    """The modules an import statement loads (``from a import b`` names
    ``a.b``, which may be a submodule)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def upper_imports(source: str):
    """``(line, module, in_function)`` for each upper-layer import."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            found.extend(
                (child.lineno, module, nested)
                for module in _imported(child)
                if _layer(module)
            )
            visit(child, nested)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize(
    "source, in_function",
    [
        ("from repro.aliasing.three_cs import pair_stream", False),
        ("import repro.model.extrapolation", False),
        ("from repro import sim", False),
        ("from repro.sim.config import make_predictor", False),
        ("try:\n    from repro.serving import server\nexcept ImportError:\n"
         "    pass", False),
        ("if True:\n    import repro.experiments.runner", False),
        ("def f():\n    from repro.sim import native", True),
        ("class C:\n    def f(self):\n        import repro.aliasing", True),
    ],
)
def test_detector_catches_upper_imports(source, in_function):
    [(_, _, nested)] = upper_imports(source)
    assert nested is in_function


def test_detector_ignores_the_layer_and_prose():
    assert not upper_imports(
        '"""Reads :mod:`repro.sim.engine`."""\n'
        "# from repro.aliasing import three_cs\n"
        "from repro.traces.trace import Trace\n"
        "from repro.util import envvars\n"
        "import numpy as np\n"
    )


def test_no_traces_module_imports_an_upper_layer():
    modules = sorted(TRACES.rglob("*.py"))
    assert TRACES / "pairs.py" in modules
    offenders = {}
    allowed_seen = set()
    for path in modules:
        name = path.relative_to(TRACES).as_posix()
        for line, module, in_function in upper_imports(
            path.read_text(encoding="utf-8")
        ):
            pair = (name, _layer(module))
            if in_function and pair in ALLOWED_IN_FUNCTIONS:
                allowed_seen.add(pair)
            else:
                offenders.setdefault(name, []).append((line, module))
    assert not offenders, offenders
    # The exception list names only imports that still exist.
    assert allowed_seen == ALLOWED_IN_FUNCTIONS
