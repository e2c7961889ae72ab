"""Multi-process and operating-system interleaving.

The IBS traces are hard on predictors because they contain *complete
system activity*: several user processes plus the Ultrix kernel, all
sharing one predictor.  This module reproduces that pressure: a
round-robin scheduler with geometrically-distributed time quanta runs a
set of user programs in their own address-space segments, and interposes
kernel bursts (system-call / interrupt handlers running the "kernel"
program) at quantum boundaries and occasionally inside a quantum.

Every context switch splices another program's branches into the global
stream, which (a) pollutes global history across processes and (b)
multiplies the set of concurrently-live (address, history) pairs — the
two mechanisms behind the high aliasing the paper measures on IBS.

The scheduler's random draws depend only on how many events each source
has produced, never on what those events are.  So :func:`plan_schedule`
runs the scheduler without any program: it returns the schedule as
``(source, count)`` segments, and the trace generator then runs each
program once for its total demand and gathers the segments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.traces.synthetic.cfg import Event, ProgramExecutor

__all__ = ["SchedulerConfig", "interleave", "plan_schedule"]


@dataclass
class SchedulerConfig:
    """Interleaving parameters.

    Args:
        mean_quantum: mean number of events a user process runs before a
            context switch (geometric).
        kernel_share: approximate fraction of all events contributed by
            the kernel program (0 disables the kernel entirely).
        mean_kernel_burst: mean events per kernel activation.
        interrupt_rate: per-event probability that a kernel burst
            interrupts the middle of a user quantum.
    """

    mean_quantum: int = 1500
    kernel_share: float = 0.15
    mean_kernel_burst: int = 120
    interrupt_rate: float = 0.0005


def _geometric(rng: random.Random, mean: int) -> int:
    """A geometric draw with the given mean, at least 1."""
    if mean <= 1:
        return 1
    # Geometric with success probability 1/mean has mean `mean`.
    return max(1, int(rng.expovariate(1.0 / mean)) + 1)


def plan_schedule(
    processes: int,
    kernel: bool,
    length: int,
    config: SchedulerConfig,
    seed: int,
) -> List[Tuple[int, int]]:
    """The schedule of ``length`` events as ``(source, count)`` segments.

    Sources ``0 .. processes-1`` are the user processes, run round-robin
    from 0; source ``processes`` is the kernel, active when ``kernel`` is
    true and ``config.kernel_share > 0``.  The counts sum to ``length``
    exactly; each source's events continue its own stream from segment to
    segment.
    """
    if processes < 1:
        raise ValueError("at least one user process is required")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    rng = random.Random(seed)
    random_draw = rng.random
    segments: List[Tuple[int, int]] = []
    total = 0
    current = 0

    kernel_active = kernel and config.kernel_share > 0
    interrupt_rate = config.interrupt_rate
    interrupts = kernel_active and interrupt_rate > 0
    interrupt_mean = max(1, config.mean_kernel_burst // 4)
    # Scheduler entry / system-call work at the quantum boundary, sized
    # so the kernel contributes ~kernel_share of all events.
    boundary_mean = min(
        max(
            1,
            int(
                config.mean_quantum
                * config.kernel_share
                / max(1e-9, 1.0 - config.kernel_share)
            ),
        ),
        config.mean_kernel_burst * 4,
    )

    while total < length:
        quantum = _geometric(rng, config.mean_quantum)
        # With interrupts on, each user event is preceded by one draw, and
        # a hit preempts the quantum with a short kernel burst before that
        # event.  ``run`` counts the user events since the last burst.
        produced = run = 0
        while produced < quantum and total < length:
            limit = min(quantum - produced, length - total)
            step = limit
            if interrupts:
                for slot in range(limit):
                    if random_draw() < interrupt_rate:
                        step = slot
                        break
            run += step
            produced += step
            total += step
            if step == limit:
                break
            if run:
                segments.append((current, run))
            burst = _geometric(rng, interrupt_mean)
            segments.append((processes, burst))
            total += burst
            if total >= length:
                run = 0
                break
            run = 1
            produced += 1
            total += 1
        if run:
            segments.append((current, run))

        if kernel_active and total < length:
            burst = _geometric(rng, boundary_mean)
            segments.append((processes, burst))
            total += burst

        current = (current + 1) % processes

    if total > length:  # a kernel burst ran past the end
        source, count = segments[-1]
        segments[-1] = (source, count - (total - length))
    return segments


def interleave(
    user_executors: List[ProgramExecutor],
    kernel_executor: "ProgramExecutor | None",
    length: int,
    config: SchedulerConfig,
    seed: int,
) -> List[Event]:
    """Produce ``length`` events of scheduled multi-process execution."""
    segments = plan_schedule(
        len(user_executors), kernel_executor is not None, length, config, seed
    )
    sources = [*user_executors, kernel_executor]
    events: List[Event] = []
    for source, count in segments:
        events.extend(sources[source].take(count))
    return events
