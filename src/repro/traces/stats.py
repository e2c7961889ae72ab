"""Trace statistics: the quantities behind Tables 1 and 2.

- Table 1: dynamic and static conditional-branch counts.
- Table 2 (per history length): substream ratio (distinct histories per
  branch address), compulsory-aliasing ratio (first encounters over
  dynamic branches), and — via the unaliased predictor — intrinsic 1-bit
  and 2-bit misprediction ratios.

The substream statistics are numpy reductions of the pair columns of
:mod:`repro.traces.pairs`; history lengths outside ``[0, 63]`` are
refused there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.traces.pairs import pair_columns, pair_keys
from repro.traces.trace import Trace

__all__ = [
    "TraceCounts",
    "SubstreamStats",
    "trace_counts",
    "substream_stats",
    "bias_density",
]


@dataclass(frozen=True)
class TraceCounts:
    """Table 1 row: conditional branch counts of one trace."""

    name: str
    dynamic: int
    static: int
    events: int
    taken_ratio: float


@dataclass(frozen=True)
class SubstreamStats:
    """Substream structure of a trace at one history length."""

    name: str
    history_bits: int
    dynamic: int
    static: int
    substreams: int

    @property
    def substream_ratio(self) -> float:
        """Distinct (address, history) pairs per branch address."""
        return self.substreams / self.static if self.static else 0.0

    @property
    def compulsory_ratio(self) -> float:
        """First encounters over dynamic conditional branches."""
        return self.substreams / self.dynamic if self.dynamic else 0.0


def trace_counts(trace: Trace) -> TraceCounts:
    """Compute the Table 1 row of ``trace``."""
    return TraceCounts(
        name=trace.name,
        dynamic=trace.conditional_count,
        static=trace.static_conditional_count,
        events=len(trace),
        taken_ratio=trace.taken_ratio,
    )


def substream_stats(trace: Trace, history_bits: int) -> SubstreamStats:
    """Substream ratio and compulsory aliasing at one history length."""
    words, histories = pair_columns(trace, history_bits)
    keys = pair_keys(words, histories, history_bits)
    return SubstreamStats(
        name=trace.name,
        history_bits=history_bits,
        dynamic=len(keys),
        static=len(np.unique(words)),
        substreams=len(np.unique(keys)),
    )


def bias_density(trace: Trace, history_bits: int) -> Dict[str, float]:
    """Static and dynamic taken-bias of (address, history) substreams.

    Returns the fraction of static substreams whose majority outcome is
    taken (the ``b`` fed to the analytical model as "the density of static
    (address, history) pairs with bias taken"), plus the dynamic taken
    ratio for reference.
    """
    words, histories = pair_columns(trace, history_bits)
    if len(words) == 0:
        return {"static_taken_bias": 0.0, "dynamic_taken_ratio": 0.0}
    takens = trace.takens[trace.conditionals.astype(bool)].astype(bool)
    pair_ids = np.unique(
        pair_keys(words, histories, history_bits), return_inverse=True
    )[1]
    totals = np.bincount(pair_ids)
    taken = np.bincount(pair_ids[takens], minlength=len(totals))
    return {
        "static_taken_bias": (
            int(np.count_nonzero(taken * 2 > totals)) / len(totals)
        ),
        "dynamic_taken_ratio": int(np.count_nonzero(takens)) / len(words),
    }
