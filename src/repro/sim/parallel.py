"""Parallel sweep execution over a multiprocessing pool.

A sweep grid is embarrassingly parallel: every (predictor spec x trace)
cell builds a fresh predictor and never shares state with its neighbours.
This module fans the cells out over worker processes while keeping the
result grid *byte-identical* to a serial run:

- **cheap tasks** — a cell crosses the pipe as ``(trace index, spec
  string)``; the worker builds the predictor from the spec and looks the
  trace up locally.  Cells are dispatched in contiguous *chunks* (at
  most two per worker), so pipe round-trips scale with the worker count
  rather than the grid size;
- **per-worker trace memoisation** — the pool initializer receives trace
  *descriptors*, not arrays.  Traces produced by the workload substrate
  are regenerated deterministically from their ``(benchmark, scale)``
  cache key (see :func:`repro.traces.synthetic.workloads.trace_cache_key`),
  so no multi-megabyte pickle crosses the pipe; ad-hoc traces fall back to
  being shipped once per worker through the initializer;
- **deterministic collection** — tasks are issued and gathered in the
  exact nesting order the serial sweep uses, so the
  :class:`~repro.sim.sweep.SweepResult` grids come out identical.

Every cell runs on its own through
:func:`repro.sim.vectorized.simulate_fast`, which picks the fastest
engine tier that can express it; serial runs, worker chunks and the
recovery paths below all execute that same per-cell loop.

The worker count comes from the ``jobs`` argument threaded through the
sweep helpers, the experiment runner, ``tools/run_full_experiments.py
--jobs`` and the ``repro-trace`` CLI; ``jobs=None`` defers to the
``REPRO_JOBS`` environment variable (default: serial), ``jobs=0`` means
one worker per CPU, and ``jobs=1`` never touches multiprocessing.

**Worker-failure recovery.**  A long sweep must survive a killed or
wedged worker without changing a single grid byte.  Each chunk is
therefore dispatched asynchronously and collected with a per-cell
timeout (``REPRO_CELL_TIMEOUT`` seconds per cell, scaled by chunk
length; ``0``/``off`` disables):

- a chunk whose worker *raises* (or dies with an error the pool can
  surface) is re-dispatched up to :data:`RETRY_LIMIT` times with
  doubling backoff, then computed serially in the parent as a last
  resort;
- a chunk that *times out* means a wedged worker: the pool is torn
  down and every not-yet-collected chunk is computed serially in the
  parent.

Every recovery path runs the exact same engines on the exact same
cells in the exact same order, so recovered grids are byte-identical
to fault-free ones (asserted by ``tests/resilience/``); per-process
counters (:func:`recovery_stats`) record what happened.  The
``worker-crash`` / ``worker-hang`` fault sites
(:mod:`repro.resilience.faults`, counted per chunk dispatch in the
parent) exercise these paths deterministically.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import InjectedFault, fault_active
from repro.sim.config import make_predictor
from repro.sim.metrics import SimulationResult
from repro.sim.vectorized import simulate_fast
from repro.traces.synthetic.workloads import ibs_trace, trace_cache_key
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "resolve_jobs",
    "run_cells",
    "simulate_specs",
    "recovery_stats",
    "reset_recovery_stats",
]

#: env var consulted when a ``jobs`` argument is left unset
#: (declared in :mod:`repro.util.envvars`)
JOBS_ENV_VAR = envvars.JOBS.name

#: env var: seconds allowed per *cell* before a worker counts as hung
#: (scaled by chunk length when collecting a chunk); ``0``/``off``/
#: ``none``/``disabled`` turns the timeout off.
CELL_TIMEOUT_ENV_VAR = envvars.CELL_TIMEOUT.name

#: default per-cell timeout — generous (cells run in seconds, not
#: minutes) so slow machines never false-positive, while a genuinely
#: wedged worker still cannot stall a batch run forever
DEFAULT_CELL_TIMEOUT_S = 300.0

#: re-dispatches of a failing chunk before the serial last resort
RETRY_LIMIT = 2

#: first retry delay; doubles per attempt (deterministic, no jitter)
BACKOFF_BASE_S = 0.05

#: injected ``worker-hang`` sleep; far beyond any timeout, and the
#: sleeping worker is killed when the pool is torn down
_HANG_SECONDS = 600.0

#: trace table of the current worker process, set by the pool initializer
_WORKER_TRACES: List[Trace] = []

#: one-time oversubscription warning latch (see :func:`_warn_oversubscribed`)
_WARNED_OVERSUBSCRIBED = False

#: per-process recovery counters; see :func:`recovery_stats`
_RECOVERY: Dict[str, int] = {"retries": 0, "timeouts": 0, "serial_cells": 0}


def recovery_stats() -> Dict[str, int]:
    """A copy of this process's worker-recovery counters.

    ``retries``: chunk re-dispatches after a worker error;
    ``timeouts``: chunks whose collection hit the per-cell timeout
    (each tears the pool down); ``serial_cells``: cells computed in the
    parent as the last resort.
    """
    return dict(_RECOVERY)


def reset_recovery_stats() -> None:
    """Zero the per-process recovery counters (tests and harnesses)."""
    for key in _RECOVERY:
        _RECOVERY[key] = 0


def _resolve_cell_timeout() -> Optional[float]:
    """Per-cell collection timeout in seconds, or ``None`` when disabled."""
    raw = envvars.CELL_TIMEOUT.text()
    if not raw:
        return DEFAULT_CELL_TIMEOUT_S
    if raw.lower() in {"0", "off", "none", "disabled"}:
        return None
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_CELL_TIMEOUT_S
    return value if value > 0 else None


def _warn_oversubscribed(jobs: int) -> None:
    """Warn once per process when ``jobs`` exceeds the CPU count.

    Worker processes beyond the core count only add scheduling and IPC
    overhead for this CPU-bound workload; the run still proceeds with the
    requested count, since the caller may know better (e.g. SMT).
    """
    global _WARNED_OVERSUBSCRIBED
    cpus = os.cpu_count() or 1
    if jobs > cpus and not _WARNED_OVERSUBSCRIBED:
        _WARNED_OVERSUBSCRIBED = True
        warnings.warn(
            f"jobs={jobs} exceeds the {cpus} available CPU(s); the sweep "
            "is CPU-bound, so extra workers usually slow it down",
            RuntimeWarning,
            stacklevel=3,
        )


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


def _describe_traces(traces: Sequence[Trace]) -> List[Tuple]:
    """Build the cheap per-worker descriptors (see module docstring)."""
    descriptors: List[Tuple] = []
    for trace in traces:
        key = trace_cache_key(trace)
        if key is not None:
            descriptors.append(("ibs", key[0], key[1]))
        else:
            # Ship the raw numpy columns, not the Trace object: the object
            # may carry megabytes of materialised hot-loop lists.
            descriptors.append(
                (
                    "literal",
                    (
                        trace.pcs,
                        trace.takens,
                        trace.conditionals,
                        trace.targets,
                        trace.name,
                        trace.seed,
                    ),
                )
            )
    return descriptors


def _init_worker(descriptors: List[Tuple]) -> None:
    """Pool initializer: materialise every sweep trace once per worker.

    Also pins ``REPRO_NATIVE_THREADS=1`` (unless the user set it): with
    one process per CPU the native kernel's own thread pool would just
    oversubscribe the machine, and the kernel is byte-identical at
    every thread count, so serial-per-worker is pure win.
    """
    if not envvars.NATIVE_THREADS.is_set():
        os.environ[envvars.NATIVE_THREADS.name] = "1"
    _WORKER_TRACES.clear()
    for descriptor in descriptors:
        if descriptor[0] == "ibs":
            _WORKER_TRACES.append(ibs_trace(descriptor[1], descriptor[2]))
        else:
            pcs, takens, conditionals, targets, name, seed = descriptor[1]
            _WORKER_TRACES.append(
                Trace(pcs, takens, conditionals, targets, name=name, seed=seed)
            )


def _run_cells_serially(
    traces: Sequence[Trace], cells: Sequence[Tuple[int, str]]
) -> List[SimulationResult]:
    """Simulate cells one at a time, in order, in the calling process.

    Workers run their chunks through it, and the parent runs it for
    serial sweeps and as the recovery last resort — there it never
    crosses a process boundary, so it bypasses the worker fault sites
    and recovery always terminates.  Each cell goes through the
    module-level ``simulate_fast`` name, so a wrapper installed on
    ``repro.sim.parallel.simulate_fast`` (``bench/`` attributes cells
    to engine tiers this way) sees every cell.
    """
    return [
        simulate_fast(make_predictor(spec), traces[index], label=spec)
        for index, spec in cells
    ]


def _run_chunk(
    chunk: Sequence[Tuple[int, str]], fault: Optional[str] = None
) -> List[SimulationResult]:
    """Worker task: simulate a contiguous run of cells, in order.

    ``fault`` is the injected-failure marker the parent attached at
    dispatch time (``"crash"`` / ``"hang"``): deciding in the parent
    keys the fault to the *dispatch*, not to whichever worker happens
    to pick the task up, which is what makes a plan like
    ``worker-crash@1`` deterministic under any scheduling.
    """
    if fault == "crash":
        raise InjectedFault("worker-crash")
    if fault == "hang":
        time.sleep(_HANG_SECONDS)
    return _run_cells_serially(_WORKER_TRACES, chunk)


def _chunk_cells(
    cells: Sequence[Tuple[int, str]], jobs: int
) -> List[List[Tuple[int, str]]]:
    """Split ``cells`` into at most ``2 * jobs`` contiguous chunks.

    One pool task per *chunk* (instead of per cell) bounds the number of
    pickle/unpickle round-trips at a small multiple of the worker count;
    two chunks per worker leaves slack for uneven cell costs without
    reintroducing per-cell dispatch overhead.  Chunks are contiguous, so
    concatenating the chunk results preserves the serial cell order.
    """
    target = min(len(cells), max(1, jobs * 2))
    base, extra = divmod(len(cells), target)
    chunks: List[List[Tuple[int, str]]] = []
    start = 0
    for index in range(target):
        size = base + (1 if index < extra else 0)
        chunks.append(list(cells[start:start + size]))
        start += size
    return chunks


def _pool_context():
    """Fork when the platform offers it (cheap, inherits warm trace
    caches copy-on-write); otherwise spawn."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _submit(pool, chunk: Sequence[Tuple[int, str]]):
    """Dispatch one chunk, consulting the worker fault sites.

    Both sites are counted on every dispatch (retries included), so an
    arrival window maps 1:1 onto dispatch numbers whatever fires.
    """
    crash = fault_active("worker-crash")
    hang = fault_active("worker-hang")
    fault = "crash" if crash else ("hang" if hang else None)
    return pool.apply_async(_run_chunk, (chunk, fault))


def run_cells(
    traces: Sequence[Trace],
    cells: Sequence[Tuple[int, str]],
    jobs: int,
) -> List[SimulationResult]:
    """Simulate ``(trace index, spec)`` cells, preserving input order.

    ``jobs`` follows the :func:`resolve_jobs` convention: values ``<= 0``
    are clamped to one worker per CPU, so pre-resolved and raw settings
    behave identically.  Serial execution — ``jobs=1`` or degenerate
    grids — runs in-process with no pool at all, so single-job callers
    pay zero multiprocessing overhead.  Parallel dispatch ships one task
    per contiguous *chunk* of cells (see :func:`_chunk_cells`), not one
    per cell, collects chunks in order under the retry/timeout policy
    described in the module docstring, and flattens the chunk results
    back into serial order — so the grid is byte-identical to a serial
    run even when workers crash or hang along the way.
    """
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(cells) <= 1:
        for trace in traces:
            # Materialise hot columns once, outside any timing loops.
            trace.sim_columns()
        return _run_cells_serially(traces, cells)

    _warn_oversubscribed(jobs)
    descriptors = _describe_traces(traces)
    chunks = _chunk_cells(cells, jobs)
    cell_timeout = _resolve_cell_timeout()
    import multiprocessing

    context = _pool_context()
    with context.Pool(
        processes=min(jobs, len(chunks)),
        initializer=_init_worker,
        initargs=(descriptors,),
    ) as pool:
        handles = [_submit(pool, chunk) for chunk in chunks]
        by_chunk: List[Optional[List[SimulationResult]]] = [None] * len(chunks)
        pool_broken = False
        for index, handle in enumerate(handles):
            chunk = chunks[index]
            if pool_broken:
                _RECOVERY["serial_cells"] += len(chunk)
                by_chunk[index] = _run_cells_serially(traces, chunk)
                continue
            timeout = (
                None if cell_timeout is None else cell_timeout * len(chunk)
            )
            attempt = 0
            while True:
                try:
                    by_chunk[index] = handle.get(timeout)
                    break
                except multiprocessing.TimeoutError:
                    # A wedged worker poisons the whole pool (its slot
                    # never frees); tear it down and finish in-process.
                    _RECOVERY["timeouts"] += 1
                    warnings.warn(
                        f"sweep chunk {index} exceeded its "
                        f"{timeout:.0f}s timeout; abandoning the worker "
                        "pool and finishing serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    pool.terminate()
                    pool_broken = True
                    _RECOVERY["serial_cells"] += len(chunk)
                    by_chunk[index] = _run_cells_serially(traces, chunk)
                    break
                except Exception as exc:
                    if attempt < RETRY_LIMIT:
                        attempt += 1
                        _RECOVERY["retries"] += 1
                        time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
                        handle = _submit(pool, chunk)
                        continue
                    warnings.warn(
                        f"sweep chunk {index} failed {attempt + 1} "
                        f"times (last: {exc!r}); computing its "
                        f"{len(chunk)} cell(s) serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    _RECOVERY["serial_cells"] += len(chunk)
                    by_chunk[index] = _run_cells_serially(traces, chunk)
                    break
        results: List[SimulationResult] = []
        for chunk_results in by_chunk:
            assert chunk_results is not None
            results.extend(chunk_results)
        return results


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
