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
from typing import Dict, List

from repro.aliasing.distance import distance_histogram
from repro.model.extrapolation import collect_distances
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


def profile_trace(trace: Trace, history_bits: int = 4) -> TraceProfile:
    """Compute the full shape profile of ``trace``."""
    taken_counts: Dict[int, int] = {}
    total_counts: Dict[int, int] = {}
    conditional = 0
    taken_total = 0
    run_direction = None
    run_length = 0
    taken_runs: List[int] = []
    not_taken_runs: List[int] = []
    segments = set()
    switches = 0
    previous_segment = None

    for pc, taken, cond in trace.sim_events():
        segment = pc >> 24
        segments.add(segment)
        if previous_segment is not None and segment != previous_segment:
            switches += 1
        previous_segment = segment
        if not cond:
            continue
        conditional += 1
        total_counts[pc] = total_counts.get(pc, 0) + 1
        if taken:
            taken_counts[pc] = taken_counts.get(pc, 0) + 1
            taken_total += 1
        direction = bool(taken)
        if direction == run_direction:
            run_length += 1
        else:
            if run_direction is True:
                taken_runs.append(run_length)
            elif run_direction is False:
                not_taken_runs.append(run_length)
            run_direction = direction
            run_length = 1
    if run_direction is True:
        taken_runs.append(run_length)
    elif run_direction is False:
        not_taken_runs.append(run_length)

    strongly_biased = 0
    near_random = 0
    for pc, total in total_counts.items():
        ratio = taken_counts.get(pc, 0) / total
        if ratio >= 0.9 or ratio <= 0.1:
            strongly_biased += 1
        elif 0.4 <= ratio <= 0.6:
            near_random += 1
    static = len(total_counts)

    distances = collect_distances(trace, history_bits)
    buckets, first = distance_histogram(distances)

    return TraceProfile(
        name=trace.name,
        events=len(trace),
        conditional=conditional,
        static=static,
        taken_ratio=taken_total / conditional if conditional else 0.0,
        strongly_biased_fraction=(
            strongly_biased / static if static else 0.0
        ),
        near_random_fraction=near_random / static if static else 0.0,
        mean_taken_run=(
            sum(taken_runs) / len(taken_runs) if taken_runs else 0.0
        ),
        mean_not_taken_run=(
            sum(not_taken_runs) / len(not_taken_runs)
            if not_taken_runs
            else 0.0
        ),
        distance_buckets=buckets,
        first_encounters=first,
        segments=len(segments),
        interleave_rate=(
            switches / len(trace) * 1000 if len(trace) else 0.0
        ),
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
