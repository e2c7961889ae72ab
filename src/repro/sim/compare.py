"""Statistical comparison of predictors: paired tests and intervals.

Misprediction-ratio differences between two designs can be small (the
paper's half-storage claims ride on fractions of a percent), so a
production evaluation needs to say whether a difference is signal.
Because two predictors can be run over the *same* trace, the right tool
is a paired analysis per branch:

- :func:`paired_outcomes` runs two predictors in lockstep and counts the
  2x2 agreement table (both right / only A right / only B right / both
  wrong);
- :func:`mcnemar` performs McNemar's exact-ish test on the discordant
  counts (normal approximation with continuity correction; exact
  binomial via scipy when the discordant count is small);
- :func:`bootstrap_difference` gives a percentile bootstrap confidence
  interval on the misprediction-ratio difference, resampling branch
  blocks to respect the stream's autocorrelation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.predictors.base import BranchPredictor
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
    #: per-branch indicator stream: (a_correct, b_correct)
    outcomes: Tuple[Tuple[bool, bool], ...]

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
    """Run both predictors over ``trace`` in lockstep."""
    pcs, takens, conditionals = trace.sim_columns()
    step_a = predictor_a.predict_and_update
    step_b = predictor_b.predict_and_update
    shift_a = predictor_a.notify_unconditional
    shift_b = predictor_b.notify_unconditional

    both = only_a = only_b = neither = 0
    outcomes: List[Tuple[bool, bool]] = []
    for pc, taken, conditional in zip(pcs, takens, conditionals):
        if conditional:
            a_correct = step_a(pc, taken) == taken
            b_correct = step_b(pc, taken) == taken
            outcomes.append((a_correct, b_correct))
            if a_correct and b_correct:
                both += 1
            elif a_correct:
                only_a += 1
            elif b_correct:
                only_b += 1
            else:
                neither += 1
        else:
            shift_a(pc, taken)
            shift_b(pc, taken)
    return PairedOutcomes(
        both_correct=both,
        only_a_correct=only_a,
        only_b_correct=only_b,
        both_wrong=neither,
        outcomes=tuple(outcomes),
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
    outcomes = paired.outcomes
    count = len(outcomes)
    if count == 0:
        return (0.0, 0.0)
    block = max(1, min(block, count))
    starts = count - block + 1
    blocks_needed = max(1, count // block)
    rng = random.Random(seed)
    differences: List[float] = []
    for __ in range(resamples):
        a_wrong = 0
        b_wrong = 0
        total = 0
        for __ in range(blocks_needed):
            start = rng.randrange(starts)
            for a_correct, b_correct in outcomes[start : start + block]:
                a_wrong += not a_correct
                b_wrong += not b_correct
                total += 1
        differences.append((a_wrong - b_wrong) / total)
    differences.sort()
    lower_index = int((1.0 - confidence) / 2.0 * (resamples - 1))
    upper_index = int((1.0 + confidence) / 2.0 * (resamples - 1))
    return (differences[lower_index], differences[upper_index])
