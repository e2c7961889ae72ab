"""Trace-quality validation: is a synthetic trace IBS-shaped?

The substitution argument in DESIGN.md §1 says the paper's phenomena are
functions of a handful of trace statistics.  This module computes those
statistics for any trace, so the claim is checkable rather than
rhetorical:

- branch-direction statistics: taken ratio, per-branch bias histogram
  (how many static branches are >90% one-sided, how many are
  near-50/50);
- run structure: average taken/not-taken run lengths (loop signature);
- working-set structure: last-use-distance profile of (address,
  history) pairs at a reference history length;
- sharing structure: number of distinct address-space segments observed
  and an interleaving rate (segment switches per 1000 events) — the
  OS/multi-process signature.

`validate_ibs_shape` packages the acceptance thresholds the IBS clones
are tuned to; its result is asserted by tests for every shipped
workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.traces.pairs import distance_histogram, pair_last_use_distances
from repro.traces.trace import Trace

__all__ = ["TraceProfile", "profile_trace", "validate_ibs_shape"]


@dataclass(frozen=True)
class TraceProfile:
    """Shape statistics of one trace."""

    name: str
    events: int
    conditional: int
    static: int
    taken_ratio: float
    #: fraction of static branches whose outcomes are >90% one direction
    strongly_biased_fraction: float
    #: fraction of static branches within [40%, 60%] taken
    near_random_fraction: float
    mean_taken_run: float
    mean_not_taken_run: float
    #: log2-bucketed last-use-distance histogram (counts)
    distance_buckets: List[int]
    first_encounters: int
    #: distinct address-space segments (pc >> 24)
    segments: int
    #: segment switches per 1000 events
    interleave_rate: float

    @property
    def median_distance_bucket(self) -> int:
        """Index of the log2 bucket containing the median distance."""
        total = sum(self.distance_buckets)
        if total == 0:
            return 0
        acc = 0
        for index, count in enumerate(self.distance_buckets):
            acc += count
            if acc * 2 >= total:
                return index
        return len(self.distance_buckets) - 1


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def profile_trace(trace: Trace, history_bits: int = 4) -> TraceProfile:
    """Compute the full shape profile of ``trace``."""
    buckets, first = distance_histogram(
        pair_last_use_distances(trace, history_bits)
    )
    conditional = trace.conditionals.astype(bool)
    pcs = trace.pcs
    outcomes = trace.takens[conditional].astype(np.int8)
    count = len(outcomes)
    taken = int(np.count_nonzero(outcomes))
    # Each static branch's taken ratio.
    branch_ids = np.unique(pcs[conditional], return_inverse=True)[1]
    totals = np.bincount(branch_ids)
    ratios = np.bincount(branch_ids, outcomes, len(totals)) / totals
    # A run opens at the first outcome and wherever the outcome flips.
    opens = np.flatnonzero(np.diff(outcomes, prepend=-1))
    taken_runs = int(np.count_nonzero(outcomes[opens]))
    segment = pcs >> np.uint64(24)
    switches = int(np.count_nonzero(segment[1:] != segment[:-1]))
    return TraceProfile(
        name=trace.name,
        events=len(trace),
        conditional=count,
        static=len(totals),
        taken_ratio=_ratio(taken, count),
        strongly_biased_fraction=_ratio(
            int(np.count_nonzero((ratios >= 0.9) | (ratios <= 0.1))),
            len(totals),
        ),
        near_random_fraction=_ratio(
            int(np.count_nonzero((ratios >= 0.4) & (ratios <= 0.6))),
            len(totals),
        ),
        mean_taken_run=_ratio(taken, taken_runs),
        mean_not_taken_run=_ratio(count - taken, len(opens) - taken_runs),
        distance_buckets=buckets,
        first_encounters=first,
        segments=len(np.unique(segment)),
        interleave_rate=_ratio(switches, len(trace)) * 1000,
    )


def validate_ibs_shape(profile: TraceProfile) -> List[str]:
    """Check a profile against the IBS-shape acceptance box.

    Returns a list of violation messages (empty = the trace looks like a
    multi-process OS workload of the kind the paper measures).  The
    bounds encode, loosely: mostly-biased branch populations, loopy run
    structure, a heavy-tailed reuse profile, and real interleaving.
    """
    problems: List[str] = []
    if not 0.45 <= profile.taken_ratio <= 0.85:
        problems.append(
            f"taken ratio {profile.taken_ratio:.2f} outside [0.45, 0.85]"
        )
    if profile.strongly_biased_fraction < 0.30:
        problems.append(
            "fewer than 30% of static branches are strongly biased "
            f"({profile.strongly_biased_fraction:.2f})"
        )
    if profile.near_random_fraction > 0.30:
        problems.append(
            "more than 30% of static branches are near-random "
            f"({profile.near_random_fraction:.2f})"
        )
    if profile.mean_taken_run < 1.5:
        problems.append(
            f"mean taken run {profile.mean_taken_run:.2f} lacks loop "
            "structure"
        )
    if profile.segments < 2:
        problems.append("single address-space segment: no multi-process mix")
    if profile.interleave_rate <= 0.0:
        problems.append("no context switching observed")
    if profile.conditional < 1000:
        problems.append("trace too short to validate")
    return problems
