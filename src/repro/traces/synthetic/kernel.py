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
program once for its total demand and gathers the segments.  Its draws
are ``random.Random(seed)``'s stream, drawn a block at a time
(:class:`_Uniforms`) from the native kernel's twister where it built and
from numpy's otherwise, and each quantum's first interrupt is found with
one vectorized compare over the quantum's draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["SchedulerConfig", "plan_schedule"]


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


#: Doubles :class:`_Uniforms` draws at a time.
_BLOCK = 1 << 14


class _Uniforms:
    """The doubles of ``random.Random(seed).random()``, drawn in blocks.

    Where the native backend built, ``repro_random_block`` (the C
    kernel's port of CPython's twister) draws each block from a state
    this object holds.  Otherwise numpy's legacy ``RandomState`` does:
    it runs the same MT19937 and its ``random_sample`` makes the same
    53-bit double from the same two words, so set to the state
    ``random.Random(seed)`` starts from it yields that stream bit for
    bit too.  Only that path imports ``numpy.random``.  Either way a
    block is at hand for :meth:`first_below` to scan with one compare.
    """

    def __init__(self, seed: int):
        from repro.sim import native

        words = random.Random(seed).getstate()[1]
        if native.native_available():
            self._draw = native.random_block_native
            self._state = (
                np.array(words[:-1], dtype=np.uint32),
                np.array(words[-1:], dtype=np.int32),
            )
        else:
            source = np.random.RandomState(0)
            source.set_state(
                ("MT19937", np.array(words[:-1], dtype=np.uint32), words[-1])
            )
            self._draw = source.random_sample
            self._state = ()
        self._block = np.empty(0)
        self._next = 0

    def _refill(self) -> None:
        self._block = self._draw(*self._state, _BLOCK)
        self._next = 0

    def random(self) -> float:
        """The stream's next double."""
        if self._next == len(self._block):
            self._refill()
        self._next += 1
        return float(self._block[self._next - 1])

    def expovariate(self, lambd: float) -> float:
        """``random.Random.expovariate``, from the stream's next double."""
        return -math.log(1.0 - self.random()) / lambd

    def first_below(self, threshold: float, count: int) -> int:
        """Index of the first of the next ``count`` doubles below
        ``threshold``, consuming the stream through it; ``count``, having
        consumed all of them, when none is."""
        scanned = 0
        while scanned < count:
            if self._next == len(self._block):
                self._refill()
            window = self._block[self._next:self._next + count - scanned]
            hit = int(np.argmax(window < threshold))
            if window[hit] < threshold:
                self._next += hit + 1
                return scanned + hit
            self._next += len(window)
            scanned += len(window)
        return count


def _geometric(rng: "random.Random | _Uniforms", mean: int) -> int:
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
    rng = _Uniforms(seed)
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
                step = rng.first_below(interrupt_rate, limit)
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

