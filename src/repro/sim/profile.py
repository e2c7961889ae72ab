"""Per-branch misprediction profiling and engine stage timing.

Aggregate ratios say *how much* a predictor mispredicts; a study usually
also needs to know *where*.  :func:`profile_mispredictions` runs a
predictor over a trace and attributes every misprediction to its static
branch, returning the offenders ranked by miss count with their
execution counts, per-branch miss rates, and taken bias — the view that
distinguishes "a few hard branches" from "diffuse aliasing".

The same "where, not just how much" question applies to the fast
engines' wall-clock: :class:`StageTimer` accumulates per-stage seconds
when passed to ``simulate_vectorized`` / ``simulate_native`` via their
``stage_timer`` argument.  Both tiers are one frame over two counter-walk
backends, so both report ``precompute`` (the index geometry and the
views of the predictor's tables), ``scan`` (the sequential counter walk,
index computation included) and ``reduce`` (the history register), and
a perf regression is attributable to a pipeline stage rather than an
opaque total.

Exposed on the command line as ``repro-trace profile``; stage timings
surface as the ``trace_sim`` workload's ``engine.<spec>.stage.*`` rows
of ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.sim.engine import miss_stream
from repro.traces.trace import Trace

__all__ = [
    "BranchProfile",
    "ProfileResult",
    "profile_mispredictions",
    "StageTimer",
    "NULL_STAGE_TIMER",
]


class StageTimer:
    """Wall-clock accumulator for named engine pipeline stages.

    >>> timer = StageTimer()
    >>> with timer.stage("scan"):
    ...     pass
    >>> sorted(timer.totals) == ["scan"]
    True

    Repeated entries into the same stage accumulate, so one timer can be
    reused across best-of-N benchmark repetitions (divide by N) or across
    every cell of a sweep (totals per stage over the whole sweep).
    """

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        """Context manager timing one stage; seconds add to ``totals``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.totals[name] = self.totals.get(name, 0.0) + elapsed


class _NullStageTimer(StageTimer):
    """No-op timer: the default when callers don't ask for stage timings."""

    def stage(self, name: str):
        return nullcontext()


#: shared do-nothing timer; engines use it when ``stage_timer`` is None.
NULL_STAGE_TIMER = _NullStageTimer()


@dataclass(frozen=True)
class BranchProfile:
    """Misprediction statistics of one static branch."""

    pc: int
    executions: int
    mispredictions: int
    taken: int

    @property
    def miss_rate(self) -> float:
        return self.mispredictions / self.executions if self.executions else 0.0

    @property
    def taken_ratio(self) -> float:
        return self.taken / self.executions if self.executions else 0.0


@dataclass(frozen=True)
class ProfileResult:
    """Ranked per-branch attribution of one run's mispredictions."""

    predictor: str
    trace: str
    total_branches: int
    total_mispredictions: int
    profiles: List[BranchProfile]  # sorted by mispredictions, descending

    @property
    def misprediction_ratio(self) -> float:
        if self.total_branches == 0:
            return 0.0
        return self.total_mispredictions / self.total_branches

    def top(self, count: int = 10) -> List[BranchProfile]:
        """The ``count`` worst-mispredicting branches."""
        return self.profiles[:count]

    def concentration(self, count: int = 10) -> float:
        """Fraction of all mispredictions owned by the top ``count``
        branches — near 1.0 means a few hard branches, near 0 means
        diffuse (aliasing-like) losses."""
        if self.total_mispredictions == 0:
            return 0.0
        owned = sum(p.mispredictions for p in self.profiles[:count])
        return owned / self.total_mispredictions


def profile_mispredictions(
    predictor: BranchPredictor, trace: Trace
) -> ProfileResult:
    """Run ``predictor`` over ``trace`` attributing misses per branch.

    The miss stream is counted per table row (each conditional event's
    code), and the rows are folded into their pcs in order of first
    execution, so branches with equal miss counts rank in that order.
    """
    missed = miss_stream(predictor, trace).view(bool)
    table = trace.table
    rows = trace.codes[trace.conditionals.view(bool)]
    executions = np.bincount(rows, minlength=len(table.pcs)).tolist()
    misses = np.bincount(rows[missed], minlength=len(table.pcs)).tolist()
    used, first = np.unique(rows, return_index=True)
    pcs = table.pcs.tolist()
    takens = table.takens.tolist()
    counts: Dict[int, List[int]] = {}
    for row in used[np.argsort(first)].tolist():
        pc_counts = counts.setdefault(pcs[row], [0, 0, 0])
        pc_counts[0] += executions[row]
        pc_counts[1] += misses[row]
        pc_counts[2] += executions[row] * takens[row]
    profiles = sorted(
        (
            BranchProfile(
                pc=pc, executions=runs, mispredictions=wrong, taken=taken
            )
            for pc, (runs, wrong, taken) in counts.items()
        ),
        key=lambda profile: profile.mispredictions,
        reverse=True,
    )
    return ProfileResult(
        predictor=predictor.name,
        trace=trace.name,
        total_branches=len(missed),
        total_mispredictions=int(np.count_nonzero(missed)),
        profiles=profiles,
    )
