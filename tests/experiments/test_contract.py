"""Every figure and table module keeps the experiment contract.

The runner, the sweep fan-out and ``tools/run_full_experiments.py``
address the paper's figures and tables uniformly, so each
``experiments/figure*.py`` / ``table*.py`` module must:

- be registered in ``runner.EXPERIMENTS``, or it silently drops out of
  ``all``;
- define ``run`` with a defaulted ``jobs`` parameter, so ``--jobs N``
  reaches it (a module without a sweep accepts and ignores it);
- pass ``jobs=`` to every sweep helper it calls, since a sweep that
  drops it runs serially with the same results and nothing else notices.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro" / "experiments"
MODULES = sorted(
    path.stem
    for pattern in ("figure*.py", "table*.py")
    for path in PACKAGE.glob(pattern)
)

#: sweep helpers that take (and must be handed) ``jobs``
SWEEP_HELPERS = frozenset(
    {"sweep_specs", "size_sweep", "history_sweep", "simulate_specs", "run_cells"}
)


def calls_without_jobs(source: str):
    """Line numbers of sweep-helper calls in ``source`` lacking ``jobs=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name in SWEEP_HELPERS and not any(
            keyword.arg == "jobs" for keyword in node.keywords
        ):
            found.append(node.lineno)
    return found


def test_every_module_is_registered():
    assert "figure5" in MODULES and "table1" in MODULES
    registered = {module.__name__.rsplit(".", 1)[-1] for module, _ in EXPERIMENTS.values()}
    assert not set(MODULES) - registered


@pytest.mark.parametrize("name", MODULES)
def test_run_takes_a_defaulted_jobs(name):
    module = importlib.import_module(f"repro.experiments.{name}")
    jobs = inspect.signature(module.run).parameters.get("jobs")
    assert jobs is not None, f"{name}.run takes no jobs"
    assert jobs.default is not inspect.Parameter.empty


@pytest.mark.parametrize("name", MODULES)
def test_every_sweep_passes_jobs(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert not calls_without_jobs(source)


@pytest.mark.parametrize(
    "source, lines",
    [
        pytest.param("sweep_specs(specs, traces, jobs=jobs)", [], id="passes-jobs"),
        pytest.param("sweep_specs(specs, traces)", [1], id="drops-jobs"),
        pytest.param(
            "x = 1\ncommon.size_sweep(spec, sizes)", [2], id="attribute-call"
        ),
        pytest.param("run_cells(cells, jobs=None)", [], id="jobs-none"),
        pytest.param(
            "from repro.sim.sweep import size_sweep\n\n"
            "def run(jobs=None):\n"
            "    return size_sweep([1, 2], 4)\n",
            [4],
            id="run-takes-jobs-but-sweep-drops-it",
        ),
    ],
)
def test_detector(source, lines):
    assert calls_without_jobs(source) == lines
