"""Parameter sweeps: the machinery behind every figure's x-axis.

A sweep runs a family of predictor configurations over a set of traces
and tabulates misprediction ratios.  Sweeps are expressed with spec
templates (see :mod:`repro.sim.config`) so experiment code reads like
the figure captions: sizes for Figures 5/6/8, history lengths for
Figures 7/12.

Each cell runs on the fastest engine that supports it, and sweeps can
fan out over a thread pool: every sweep helper takes ``jobs``
(``None`` defers to the ``REPRO_JOBS`` environment variable, declared
in :mod:`repro.util.envvars`; see :mod:`repro.sim.parallel`).
Grids are deterministic and identical for any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.metrics import SimulationResult
from repro.sim.parallel import resolve_jobs, run_cells
from repro.traces.trace import Trace

__all__ = ["SweepResult", "sweep_specs", "size_sweep", "history_sweep"]


@dataclass
class SweepResult:
    """A grid of simulation results: series x points x traces."""

    #: x-axis values, in order (entry counts or history lengths)
    points: List[object] = field(default_factory=list)
    #: series name -> trace name -> list of results aligned with points
    series: Dict[str, Dict[str, List[SimulationResult]]] = field(
        default_factory=dict
    )

    def add(self, series_name: str, result: SimulationResult) -> None:
        """Append a result to a series (grouped per trace)."""
        per_trace = self.series.setdefault(series_name, {})
        per_trace.setdefault(result.trace, []).append(result)

    def ratios(self, series_name: str, trace_name: str) -> List[float]:
        """Misprediction ratios of one curve, aligned with :attr:`points`."""
        return [
            result.misprediction_ratio
            for result in self.series[series_name][trace_name]
        ]

    def trace_names(self) -> List[str]:
        """Trace names present in the grid, in insertion order."""
        names: List[str] = []
        for per_trace in self.series.values():
            for name in per_trace:
                if name not in names:
                    names.append(name)
        return names


def sweep_specs(
    traces: Sequence[Trace],
    series: Dict[str, Sequence[str]],
    points: Sequence[object],
    jobs: Optional[int] = None,
) -> SweepResult:
    """Run aligned spec lists over every trace.

    Args:
        traces: workloads to simulate.
        series: mapping from series name to a list of predictor specs,
            one per x-axis point.
        points: x-axis values (must match each spec list's length).
        jobs: threads (1 = serial, 0 = one per CPU, None = the
            ``REPRO_JOBS`` environment variable, defaulting to serial).
            The grid is identical for every value.
    """
    for name, specs in series.items():
        if len(specs) != len(points):
            raise ValueError(
                f"series {name!r} has {len(specs)} specs for "
                f"{len(points)} points"
            )
    # Cell order is the serial nesting order; run_cells preserves it, so
    # the grid below fills identically for any thread count.
    cells: List[Tuple[int, str]] = []
    cell_series: List[str] = []
    for index in range(len(traces)):
        for name, specs in series.items():
            for spec in specs:
                cells.append((index, spec))
                cell_series.append(name)
    outcomes = run_cells(traces, cells, resolve_jobs(jobs))
    result = SweepResult(points=list(points))
    for name, outcome in zip(cell_series, outcomes):
        result.add(name, outcome)
    return result


def size_sweep(
    traces: Sequence[Trace],
    sizes: Sequence[int],
    history_bits: int,
    schemes: Dict[str, Callable[[int], str]],
    jobs: Optional[int] = None,
) -> SweepResult:
    """Sweep total predictor size for several schemes (Figures 5/6/8).

    ``schemes`` maps a series name to a function producing a spec from a
    *total entry count*, e.g. ``lambda n: f"gskew:3x{format_entries(n // 3)}:h4"``.
    """
    series = {
        name: [build(size) for size in sizes]
        for name, build in schemes.items()
    }
    return sweep_specs(traces, series, points=list(sizes), jobs=jobs)


def history_sweep(
    traces: Sequence[Trace],
    history_lengths: Iterable[int],
    schemes: Dict[str, Callable[[int], str]],
    jobs: Optional[int] = None,
) -> SweepResult:
    """Sweep history length at fixed sizes (Figures 7/12)."""
    lengths = list(history_lengths)
    series = {
        name: [build(h) for h in lengths] for name, build in schemes.items()
    }
    return sweep_specs(traces, series, points=lengths, jobs=jobs)
