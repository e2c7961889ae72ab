"""Parallel sweep execution over a thread pool.

Every (predictor spec x trace) cell of a sweep builds a fresh predictor
and runs through :func:`repro.sim.vectorized.simulate_fast`.  Every spec
of the figure sweeps, the fully-associative LRU table included, runs on
the C kernel, whose cffi calls release the GIL, so threads walk cells
concurrently over the traces the caller holds; a generic-interpreter
cell, or any cell on a host without a compiler, holds the GIL instead.
Results come back in input order, the sweep's serial nesting order, so
grids are *byte-identical* to a serial run.

``jobs`` is threaded through the sweep helpers, the experiment runner,
``tools/run_full_experiments.py --jobs`` and the ``repro-trace`` CLI:
``None`` defers to ``REPRO_JOBS`` (default: serial), ``0`` means one
thread per CPU, and ``1`` runs every cell in the calling thread.

Threads share the process, so a fault inside the C kernel takes the
whole run down.  Against that, every walk's inputs are refused before
the call when the kernel could read or write out of range
(:func:`repro.sim.vectorized._check_walk` and its siblings), and
``tests/sim/test_native.py`` fuzzes every kernel entry point against an
oracle.
"""

from __future__ import annotations

import os
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.sim.config import make_predictor
from repro.sim.metrics import SimulationResult
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = ["resolve_jobs", "run_cells", "simulate_specs"]

#: env var consulted when a ``jobs`` argument is left unset
#: (declared in :mod:`repro.util.envvars`)
JOBS_ENV_VAR = envvars.JOBS.name


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a ``jobs`` setting into a concrete worker count.

    ``None`` consults ``REPRO_JOBS`` (absent/invalid -> 1, i.e. serial);
    ``0`` or a negative count means one worker per available CPU.
    """
    if jobs is None:
        raw = envvars.JOBS.text()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _run_cell(traces: Sequence[Trace], cell: Tuple[int, str]) -> SimulationResult:
    """Simulate one ``(trace index, spec)`` cell.

    It goes through the module-level ``simulate_fast`` name, so a
    wrapper installed on ``repro.sim.parallel.simulate_fast`` (``bench/``
    attributes cells to engine tiers this way) sees every cell.
    """
    index, spec = cell
    return simulate_fast(make_predictor(spec), traces[index], label=spec)


def run_cells(
    traces: Sequence[Trace],
    cells: Sequence[Tuple[int, str]],
    jobs: int,
) -> List[SimulationResult]:
    """Simulate ``(trace index, spec)`` cells, preserving input order.

    ``jobs`` follows the :func:`resolve_jobs` convention: values ``<= 0``
    are clamped to one thread per CPU.  ``jobs=1`` and single-cell grids
    run in the calling thread; otherwise the cells are mapped over a
    pool of ``jobs`` threads, in order.  A cell that raises raises here.
    """
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    run = partial(_run_cell, traces)
    if jobs == 1 or len(cells) <= 1:
        return list(map(run, cells))

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return list(pool.map(run, cells))


def simulate_specs(
    trace: Trace,
    specs: Sequence[str],
    jobs: Optional[int] = None,
) -> List[SimulationResult]:
    """Run several predictor specs over one trace, optionally in parallel.

    Convenience wrapper used by the ``repro-trace simulate`` command;
    results come back aligned with ``specs``.
    """
    resolved = resolve_jobs(jobs)
    return run_cells([trace], [(0, spec) for spec in specs], resolved)
