"""Statistical comparison of predictors: paired tests and intervals.

Misprediction-ratio differences between two designs can be small (the
paper's half-storage claims ride on fractions of a percent), so a
production evaluation needs to say whether a difference is signal.
Because two predictors can be run over the *same* trace, the right tool
is a paired analysis per branch:

- :func:`paired_outcomes` runs two predictors over the same trace, keeps
  each one's miss stream and counts the 2x2 agreement table (both right /
  only A right / only B right / both wrong);
- :func:`mcnemar` performs McNemar's exact-ish test on the discordant
  counts (normal approximation with continuity correction; exact
  binomial via scipy when the discordant count is small);
- :func:`bootstrap_difference` gives a percentile bootstrap confidence
  interval on the misprediction-ratio difference, resampling branch
  blocks to respect the stream's autocorrelation; each block's sum is a
  difference of two prefix sums.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.sim.engine import miss_stream
from repro.traces.trace import Trace

__all__ = [
    "PairedOutcomes",
    "paired_outcomes",
    "mcnemar",
    "bootstrap_difference",
]


@dataclass(frozen=True)
class PairedOutcomes:
    """Per-branch agreement table for two predictors on one trace."""

    both_correct: int
    only_a_correct: int
    only_b_correct: int
    both_wrong: int
    #: each predictor's miss stream (:func:`~repro.sim.engine.miss_stream`:
    #: a uint8 per conditional branch, 1 = mispredicted), which the
    #: bootstrap resamples
    a_missed: np.ndarray = field(compare=False)
    b_missed: np.ndarray = field(compare=False)

    @property
    def branches(self) -> int:
        return (
            self.both_correct
            + self.only_a_correct
            + self.only_b_correct
            + self.both_wrong
        )

    @property
    def a_misprediction_ratio(self) -> float:
        if self.branches == 0:
            return 0.0
        return (self.only_b_correct + self.both_wrong) / self.branches

    @property
    def b_misprediction_ratio(self) -> float:
        if self.branches == 0:
            return 0.0
        return (self.only_a_correct + self.both_wrong) / self.branches


def paired_outcomes(
    predictor_a: BranchPredictor,
    predictor_b: BranchPredictor,
    trace: Trace,
) -> PairedOutcomes:
    """Run both predictors over ``trace`` and count their agreement.

    Raises:
        ValueError: if ``predictor_a`` and ``predictor_b`` are the same
            object, which would train one predictor on every branch twice.
    """
    if predictor_a is predictor_b:
        raise ValueError("paired_outcomes needs two distinct predictors")
    a_missed = miss_stream(predictor_a, trace)
    b_missed = miss_stream(predictor_b, trace)
    a_wrong = int(np.count_nonzero(a_missed))
    b_wrong = int(np.count_nonzero(b_missed))
    both_wrong = int(np.count_nonzero(a_missed & b_missed))
    return PairedOutcomes(
        both_correct=len(a_missed) - a_wrong - b_wrong + both_wrong,
        only_a_correct=b_wrong - both_wrong,
        only_b_correct=a_wrong - both_wrong,
        both_wrong=both_wrong,
        a_missed=a_missed,
        b_missed=b_missed,
    )


def mcnemar(paired: PairedOutcomes) -> float:
    """Two-sided McNemar p-value on the discordant branch pairs.

    Small discordant counts use the exact binomial test (scipy);
    otherwise the chi-squared approximation with continuity correction.
    A small p-value means the two predictors' error sets genuinely
    differ — not merely that their rates differ by sampling noise.
    """
    n_a = paired.only_a_correct
    n_b = paired.only_b_correct
    discordant = n_a + n_b
    if discordant == 0:
        return 1.0
    if discordant <= 100:
        from scipy import stats

        result = stats.binomtest(min(n_a, n_b), discordant, 0.5)
        return min(1.0, result.pvalue)
    statistic = (abs(n_a - n_b) - 1.0) ** 2 / discordant
    # Survival function of chi^2 with 1 dof: erfc(sqrt(x/2)).
    return math.erfc(math.sqrt(statistic / 2.0))


def bootstrap_difference(
    paired: PairedOutcomes,
    resamples: int = 1000,
    block: int = 256,
    confidence: float = 0.95,
    seed: int = 12345,
) -> Tuple[float, float]:
    """Block-bootstrap CI for (A misprediction − B misprediction).

    Negative interval = A is better.  Blocks preserve the local
    correlation structure of branch streams.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    count = len(paired.a_missed)
    if count == 0:
        return (0.0, 0.0)
    block = max(1, min(block, count))
    starts = count - block + 1
    blocks_needed = max(1, count // block)
    total = blocks_needed * block
    # cumulative[i]: A's misses minus B's over the first i branches.
    cumulative = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(
        paired.a_missed.astype(np.int64) - paired.b_missed, out=cumulative[1:]
    )
    rng = random.Random(seed)
    differences: List[float] = []
    for __ in range(resamples):
        drawn = np.array([rng.randrange(starts) for __ in range(blocks_needed)])
        difference = cumulative[drawn + block] - cumulative[drawn]
        differences.append(int(difference.sum()) / total)
    differences.sort()
    lower_index = int((1.0 - confidence) / 2.0 * (resamples - 1))
    upper_index = int((1.0 + confidence) / 2.0 * (resamples - 1))
    return (differences[lower_index], differences[upper_index])
