"""Windowed (time-resolved) misprediction measurement.

A single misprediction ratio hides the predictor's *learning curve*:
cold tables mispredict heavily until the working set is installed, then
settle to a steady state punctuated by context-switch disturbances.
:func:`windowed_misprediction` resolves the ratio over fixed-size
windows of conditional branches, giving the series that warm-up and
phase analyses need — including this repository's own scaled-trace
caveat (short traces overweight the cold region; see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.sim.engine import miss_stream
from repro.traces.trace import Trace

__all__ = ["WindowedResult", "windowed_misprediction"]


@dataclass(frozen=True)
class WindowedResult:
    """Per-window misprediction counts of one run."""

    predictor: str
    trace: str
    window: int
    #: mispredictions per window (the last window may be partial)
    misses: List[int]
    #: conditional branches per window
    branches: List[int]

    @property
    def ratios(self) -> List[float]:
        return [
            m / b if b else 0.0 for m, b in zip(self.misses, self.branches)
        ]

    @property
    def overall(self) -> float:
        total = sum(self.branches)
        return sum(self.misses) / total if total else 0.0

    def steady_state(self, skip_fraction: float = 0.25) -> float:
        """Misprediction ratio after skipping the first windows."""
        if not self.branches:
            return 0.0
        start = min(
            len(self.branches) - 1, int(len(self.branches) * skip_fraction)
        )
        branches = sum(self.branches[start:])
        return sum(self.misses[start:]) / branches if branches else 0.0

    def cold_start(self, take_fraction: float = 0.1) -> float:
        """Misprediction ratio over the first windows only."""
        if not self.branches:
            return 0.0
        end = max(1, int(len(self.branches) * take_fraction))
        branches = sum(self.branches[:end])
        return sum(self.misses[:end]) / branches if branches else 0.0

    @property
    def warmup_penalty(self) -> float:
        """cold_start minus steady_state: what short traces overweight."""
        return self.cold_start() - self.steady_state()


def windowed_misprediction(
    predictor: BranchPredictor,
    trace: Trace,
    window: int = 2000,
) -> WindowedResult:
    """Run ``predictor`` over ``trace`` collecting per-window counts
    (the miss stream summed over each ``window`` conditional branches)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    missed = miss_stream(predictor, trace)
    starts = np.arange(0, len(missed), window)
    misses = np.add.reduceat(missed, starts, dtype=np.int64) if len(missed) else starts
    return WindowedResult(
        predictor=predictor.name,
        trace=trace.name,
        window=window,
        misses=misses.tolist(),
        branches=np.diff(starts, append=len(missed)).tolist(),
    )
