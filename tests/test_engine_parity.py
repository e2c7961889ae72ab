"""Every fast-path entry point is named by some test.

The fast tiers (``sim/vectorized.py``, ``sim/native.py``), the
vectorized aliasing engine and the whole-trace pair columns both share
(``traces/pairs.py``) re-implement the reference engines in closed form.
Their correctness argument is the equivalence suites: bit-identical
results on shared inputs.  A public name that no test mentions is an
unverified fast path, so each name in those modules' ``__all__`` must
appear, as a whole word, in some file under ``tests/``.

The C entry points hide behind cffi's opaque ``lib`` handle, where a
Python wrapper can cover for a kernel function no test calls directly;
every ``repro_*`` function declared in ``native._CDEF`` is held to the
same bar.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.aliasing.vectorized
import repro.sim.native
import repro.sim.vectorized
import repro.traces.pairs

TESTS = Path(__file__).resolve().parent

MODULES = (
    repro.sim.vectorized,
    repro.sim.native,
    repro.aliasing.vectorized,
    repro.traces.pairs,
)


def kernel_entry_points(cdef: str):
    """The ``repro_*`` functions a cdef string declares."""
    return sorted(set(re.findall(r"\b(repro_\w+)\s*\(", cdef)))


def unreferenced(names, corpus: str):
    """The names in ``names`` that ``corpus`` never mentions as a word."""
    return [
        name for name in names
        if not re.search(rf"\b{re.escape(name)}\b", corpus)
    ]


@pytest.fixture(scope="module")
def corpus() -> str:
    """Every test file but this one, which names no entry point."""
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(TESTS.rglob("*.py"))
        if path != Path(__file__).resolve()
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_is_tested(module, corpus):
    assert module.__all__
    assert not unreferenced(module.__all__, corpus)


def test_every_kernel_entry_point_is_tested(corpus):
    entry_points = kernel_entry_points(repro.sim.native._CDEF)
    assert "repro_walk" in entry_points
    assert not unreferenced(entry_points, corpus)


def test_unreferenced_matches_whole_words():
    corpus = "run_fast(predictor, trace)\nlib.repro_step(...)"
    assert unreferenced(["run_fast", "repro_step"], corpus) == []
    assert unreferenced(["run", "repro_step_twice"], corpus) == [
        "run", "repro_step_twice"
    ]
