"""Tests for the multi-process/OS interleaving scheduler."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.cfg import ProgramConfig, ProgramExecutor, build_program
from repro.traces.synthetic.kernel import (
    SchedulerConfig,
    _geometric,
    interleave,
    plan_schedule,
)


def _executor(base, seed):
    config = ProgramConfig(
        static_branches=60,
        procedures=6,
        base_address=base,
        mix=BehaviorMix(),
        name=f"p{base:#x}",
    )
    return ProgramExecutor(build_program(config, seed=seed), seed=seed + 1)


KERNEL_BASE = 0x8000_0000


class TestInterleave:
    def test_exact_length(self):
        events = interleave(
            [_executor(0x400000, 1)],
            _executor(KERNEL_BASE, 9),
            length=5000,
            config=SchedulerConfig(),
            seed=3,
        )
        assert len(events) == 5000

    def test_zero_length(self):
        events = interleave(
            [_executor(0x400000, 1)],
            None,
            length=0,
            config=SchedulerConfig(kernel_share=0.0),
            seed=3,
        )
        assert events == []

    def test_deterministic(self):
        def run():
            return interleave(
                [_executor(0x400000, 1), _executor(0x1400000, 2)],
                _executor(KERNEL_BASE, 9),
                length=4000,
                config=SchedulerConfig(mean_quantum=300),
                seed=3,
            )

        assert run() == run()

    def test_all_processes_scheduled(self):
        events = interleave(
            [_executor(0x400000, 1), _executor(0x1400000, 2)],
            None,
            length=8000,
            config=SchedulerConfig(mean_quantum=500, kernel_share=0.0),
            seed=4,
        )
        segments = {pc & 0xFF00_0000 for pc, *_ in events}
        assert 0x0040_0000 & 0xFF00_0000 in segments or 0x0 in segments
        assert 0x0100_0000 in segments

    def test_kernel_share_approximate(self):
        share = 0.25
        events = interleave(
            [_executor(0x400000, 1)],
            _executor(KERNEL_BASE, 9),
            length=30_000,
            config=SchedulerConfig(
                mean_quantum=600, kernel_share=share, mean_kernel_burst=150
            ),
            seed=5,
        )
        kernel_events = sum(1 for pc, *_ in events if pc >= KERNEL_BASE)
        observed = kernel_events / len(events)
        assert 0.4 * share < observed < 2.0 * share

    def test_no_kernel_when_disabled(self):
        events = interleave(
            [_executor(0x400000, 1)],
            _executor(KERNEL_BASE, 9),
            length=5000,
            config=SchedulerConfig(kernel_share=0.0),
            seed=6,
        )
        assert all(pc < KERNEL_BASE for pc, *_ in events)

    def test_validation(self):
        with pytest.raises(ValueError):
            interleave([], None, 100, SchedulerConfig(), seed=1)
        with pytest.raises(ValueError):
            interleave(
                [_executor(0x400000, 1)], None, -1, SchedulerConfig(), seed=1
            )

    def test_context_switches_interleave_quanta(self):
        """With two processes and short quanta, segments must alternate
        many times (the aliasing-pressure mechanism)."""
        events = interleave(
            [_executor(0x400000, 1), _executor(0x1400000, 2)],
            None,
            length=10_000,
            config=SchedulerConfig(mean_quantum=200, kernel_share=0.0),
            seed=7,
        )
        segment = [pc >> 24 for pc, *_ in events]
        switches = sum(
            1 for a, b in zip(segment, segment[1:]) if a != b
        )
        assert switches >= 10


def _reference_sources(processes, kernel, length, config, seed):
    """The source of every event, scheduled one event at a time: the
    scheduler loop as it ran before it became a planner."""
    rng = random.Random(seed)
    sources = []
    current = 0
    kernel_active = kernel and config.kernel_share > 0
    while len(sources) < length:
        quantum = _geometric(rng, config.mean_quantum)
        produced = 0
        while produced < quantum and len(sources) < length:
            if (
                kernel_active
                and config.interrupt_rate > 0
                and rng.random() < config.interrupt_rate
            ):
                burst = _geometric(rng, max(1, config.mean_kernel_burst // 4))
                sources.extend([processes] * burst)
                if len(sources) >= length:
                    break
            sources.append(current)
            produced += 1
        if kernel_active and len(sources) < length:
            burst_mean = max(
                1,
                int(
                    config.mean_quantum
                    * config.kernel_share
                    / max(1e-9, 1.0 - config.kernel_share)
                ),
            )
            burst = _geometric(rng, min(burst_mean, config.mean_kernel_burst * 4))
            sources.extend([processes] * burst)
        current = (current + 1) % processes
    return sources[:length]


class TestPlanSchedule:
    @given(
        processes=st.integers(min_value=1, max_value=4),
        kernel=st.booleans(),
        length=st.integers(min_value=0, max_value=3_000),
        config=st.builds(
            SchedulerConfig,
            mean_quantum=st.integers(min_value=1, max_value=400),
            kernel_share=st.sampled_from([0.0, 0.2, 0.5]),
            mean_kernel_burst=st.integers(min_value=1, max_value=80),
            interrupt_rate=st.sampled_from([0.0, 0.001, 0.05, 0.5]),
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_event_by_event_scheduler(
        self, processes, kernel, length, config, seed
    ):
        segments = plan_schedule(processes, kernel, length, config, seed)
        assert all(count > 0 for _, count in segments)
        planned = [source for source, count in segments for _ in range(count)]
        assert planned == _reference_sources(
            processes, kernel, length, config, seed
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_schedule(0, False, 100, SchedulerConfig(), seed=1)
        with pytest.raises(ValueError):
            plan_schedule(1, False, -1, SchedulerConfig(), seed=1)
