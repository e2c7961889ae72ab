"""Extrapolating gskew misprediction rates from measured distances.

This is the Figure 11 methodology, reproduced step by step:

1. measure the last-use distance ``D`` of every dynamic
   (address, history) reference in the trace;
2. measure the bias density ``b`` — the fraction of static substreams
   whose majority outcome is taken;
3. for each reference apply formula (1) (``p = p_N(D)``, with ``p = 1``
   on first encounters) and formula (3) (``P_sk(p, b)``), and average;
4. add the unaliased misprediction rate (Table 2, 1-bit counters, since
   the model assumes 1-bit automatons and total update).

The extrapolation is expected to *slightly overestimate* the measured
rate because the model ignores constructive aliasing — the reproduction
asserts exactly that relationship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.aliasing.distance import LastUseDistanceTracker
from repro.aliasing.three_cs import pair_stream
from repro.aliasing.vectorized import supports
from repro.model.analytical import aliasing_probability
from repro.traces.pairs import pair_last_use_distances
from repro.traces.stats import bias_density
from repro.traces.trace import Trace

__all__ = [
    "ExtrapolationResult",
    "collect_distances",
    "extrapolate_gskew",
]


@dataclass(frozen=True)
class ExtrapolationResult:
    """Extrapolated misprediction rate for one gskew configuration."""

    bank_entries: int
    banks: int
    history_bits: int
    bias: float
    aliasing_overhead: float
    unaliased_rate: float

    @property
    def misprediction_rate(self) -> float:
        """Total extrapolated misprediction ratio."""
        return self.aliasing_overhead + self.unaliased_rate


def collect_distances(
    trace: Trace, history_bits: int
) -> List[Optional[int]]:
    """Last-use distance of every dynamic (address, history) reference.

    ``None`` marks first encounters.  Distances depend only on the trace
    and the history length, so experiment code computes them once and
    reuses them across all table sizes.  Runs on the vectorized engine
    (:func:`repro.traces.pairs.pair_last_use_distances`) when it
    supports the history length, falling back to the streaming Fenwick
    tracker otherwise; both yield the identical profile.
    """
    if supports(history_bits):
        distances = pair_last_use_distances(trace, history_bits)
        return [None if d < 0 else d for d in distances.tolist()]
    tracker = LastUseDistanceTracker(capacity=max(1, len(trace)))
    return [tracker.reference(pair) for pair in pair_stream(trace, history_bits)]


def extrapolate_gskew(
    trace: Trace,
    history_bits: int,
    bank_entries: int,
    banks: int = 3,
    unaliased_rate: float = 0.0,
    distances: Optional[Sequence[Optional[int]]] = None,
    bias: Optional[float] = None,
) -> ExtrapolationResult:
    """Apply the analytical model to one gskew configuration.

    Args:
        trace: the workload.
        history_bits: global-history length.
        bank_entries: entries per bank (``N`` in formula (1)).
        banks: bank count (the closed-form P_sk is the 3-bank formula;
            other counts use the generalisation).
        unaliased_rate: the Table 2 misprediction rate to add (1-bit
            counters to match the model's assumptions).
        distances: precomputed :func:`collect_distances` output
            (recomputed if omitted).
        bias: precomputed static taken-bias density (measured from the
            trace if omitted).
    """
    if distances is None:
        distances = collect_distances(trace, history_bits)
    if bias is None:
        bias = bias_density(trace, history_bits)["static_taken_bias"]

    if not distances:
        overhead = 0.0
    elif banks == 3:
        # Vectorised formulas (1) + (3); first encounters get p = 1.
        import numpy as np

        raw = np.fromiter(
            (-1 if d is None else d for d in distances),
            dtype=np.int64,
            count=len(distances),
        )
        first = raw < 0
        p = 1.0 - (1.0 - 1.0 / bank_entries) ** raw.clip(min=0)
        p = np.where(first, 1.0, p)
        b = bias
        q = 1.0 - b
        p3 = p * p * p
        sk = (
            3.0 * p * p * (1.0 - p) * b * q
            + p3 * b * (3.0 * b * q * q + q * q * q)
            + p3 * q * (3.0 * q * b * b + b * b * b)
        )
        overhead = float(sk.mean())
    else:
        from repro.model.analytical import p_sk_multibank

        total = 0.0
        for distance in distances:
            p_scalar = aliasing_probability(distance, bank_entries)
            total += p_sk_multibank(p_scalar, bias, banks)
        overhead = total / len(distances)
    return ExtrapolationResult(
        bank_entries=bank_entries,
        banks=banks,
        history_bits=history_bits,
        bias=bias,
        aliasing_overhead=overhead,
        unaliased_rate=unaliased_rate,
    )
