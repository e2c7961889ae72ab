"""Trace statistics: the quantities behind Tables 1 and 2.

- Table 1: dynamic and static conditional-branch counts.
- Table 2 (per history length): substream ratio (distinct histories per
  branch address), compulsory-aliasing ratio (first encounters over
  dynamic branches), and — via the unaliased predictor — intrinsic 1-bit
  and 2-bit misprediction ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.aliasing.three_cs import pair_stream
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
    pairs: Set[Tuple[int, int]] = set()
    addresses: Set[int] = set()
    dynamic = 0
    for pair in pair_stream(trace, history_bits):
        pairs.add(pair)
        addresses.add(pair[0])
        dynamic += 1
    return SubstreamStats(
        name=trace.name,
        history_bits=history_bits,
        dynamic=dynamic,
        static=len(addresses),
        substreams=len(pairs),
    )


def bias_density(trace: Trace, history_bits: int) -> Dict[str, float]:
    """Static and dynamic taken-bias of (address, history) substreams.

    Returns the fraction of static substreams whose majority outcome is
    taken (the ``b`` fed to the analytical model as "the density of static
    (address, history) pairs with bias taken"), plus the dynamic taken
    ratio for reference.
    """
    taken_counts: Dict[Tuple[int, int], int] = {}
    total_counts: Dict[Tuple[int, int], int] = {}
    mask = (1 << history_bits) - 1 if history_bits else 0
    history = 0
    dynamic_taken = 0
    dynamic_total = 0
    for pc, taken, conditional in trace.sim_events():
        if conditional:
            pair = (pc >> 2, history)
            total_counts[pair] = total_counts.get(pair, 0) + 1
            if taken:
                taken_counts[pair] = taken_counts.get(pair, 0) + 1
                dynamic_taken += 1
            dynamic_total += 1
        history = ((history << 1) | taken) & mask
    if not total_counts:
        return {"static_taken_bias": 0.0, "dynamic_taken_ratio": 0.0}
    biased_taken = sum(
        1
        for pair, total in total_counts.items()
        if taken_counts.get(pair, 0) * 2 > total
    )
    return {
        "static_taken_bias": biased_taken / len(total_counts),
        "dynamic_taken_ratio": (
            dynamic_taken / dynamic_total if dynamic_total else 0.0
        ),
    }
