"""Tests for the multi-process/OS interleaving scheduler."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.native as native
from repro.sim.native import native_available
from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.cfg import ProgramConfig, build_program, run_program
from repro.traces.synthetic.kernel import (
    _BLOCK,
    SchedulerConfig,
    _geometric,
    _Uniforms,
    plan_schedule,
)


def _executor(base, seed):
    """A small program in the segment at ``base`` and its run seed."""
    config = ProgramConfig(
        static_branches=60,
        procedures=6,
        base_address=base,
        mix=BehaviorMix(),
        name=f"p{base:#x}",
    )
    return build_program(config, seed=seed), seed + 1


def interleave(users, kernel, length, config, seed):
    """``length`` scheduled events: ``plan_schedule``'s segments cut
    from each source's one run (the trace generator's layout), as
    ``(pc, taken, conditional, target)`` rows."""
    segments = plan_schedule(len(users), kernel is not None, length, config, seed)
    sources = [*users, kernel] if kernel is not None else users
    demand = [0] * len(sources)
    for source, count in segments:
        demand[source] += count
    streams = []
    for (program, run_seed), need in zip(sources, demand):
        table, codes = run_program(program, run_seed, need)
        streams.append([table[code] for code in codes.tolist()])
    events = []
    position = [0] * len(sources)
    for source, count in segments:
        events.extend(streams[source][position[source]:position[source] + count])
        position[source] += count
    return events


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
    """The source of every event, scheduled one event at a time with
    ``random.Random`` draws: the scheduler loop as it ran before it
    became a planner drawing from numpy."""
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

    @pytest.mark.parametrize(
        "config",
        [
            SchedulerConfig(),
            SchedulerConfig(mean_quantum=5_000, interrupt_rate=0.0001),
            SchedulerConfig(mean_quantum=40, interrupt_rate=0.02),
        ],
    )
    def test_long_schedules_match_across_draw_blocks(self, config):
        # Tens of thousands of interrupt draws: the numpy blocks run out
        # mid-quantum many times over.
        length = 8 * _BLOCK
        segments = plan_schedule(3, True, length, config, seed=11)
        planned = [source for source, count in segments for _ in range(count)]
        assert planned == _reference_sources(3, True, length, config, 11)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_schedule(0, False, 100, SchedulerConfig(), seed=1)
        with pytest.raises(ValueError):
            plan_schedule(1, False, -1, SchedulerConfig(), seed=1)


class TestUniforms:
    """``_Uniforms`` is ``random.Random(seed).random()``'s stream, drawn
    a block at a time."""

    @pytest.mark.parametrize("seed", [0, 7, -(2**40), 2**80 + 3])
    def test_stream_equals_random(self, seed):
        uniforms, rng = _Uniforms(seed), random.Random(seed)
        count = 2 * _BLOCK + 5
        assert [uniforms.random() for _ in range(count)] == [
            rng.random() for _ in range(count)
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        counts=st.lists(
            st.integers(min_value=0, max_value=3 * _BLOCK), max_size=5
        ),
        threshold=st.sampled_from([0.0, 1e-5, 0.0008, 0.3, 1.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_first_below_consumes_like_a_draw_loop(self, seed, counts, threshold):
        uniforms, rng = _Uniforms(seed), random.Random(seed)
        for count in counts:
            expected = count
            for slot in range(count):
                if rng.random() < threshold:
                    expected = slot
                    break
            assert uniforms.first_below(threshold, count) == expected
            # The stream continues where the loop left it.
            assert uniforms.expovariate(1 / 300) == rng.expovariate(1 / 300)
            assert _geometric(uniforms, 40) == _geometric(rng, 40)

    @pytest.mark.skipif(
        not native_available(), reason="native backend unavailable (no C compiler or no cffi)"
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, -(2**40), 2**80 + 3])
    def test_kernel_and_numpy_blocks_agree(self, seed, monkeypatch):
        # repro_random_block draws the blocks where the backend built,
        # numpy's RandomState where it did not: the same doubles, across
        # several block boundaries.
        count = 3 * _BLOCK + 11
        kernel = _Uniforms(seed)
        assert kernel._draw is native.random_block_native
        drawn = [kernel.random() for _ in range(count)]
        monkeypatch.setattr(native, "native_available", lambda: False)
        numpy_blocks = _Uniforms(seed)
        assert numpy_blocks._draw is not native.random_block_native
        assert drawn == [numpy_blocks.random() for _ in range(count)]

    @pytest.mark.skipif(
        not native_available(), reason="native backend unavailable (no C compiler or no cffi)"
    )
    def test_repro_random_block_advances_the_callers_state(self):
        rng = random.Random(12)
        state = rng.getstate()[1]
        words = np.array(state[:-1], dtype=np.uint32)
        index = np.array(state[-1:], dtype=np.int32)
        for count in (0, 5, 700, 1):  # 700 doubles regenerate the words
            block = native.random_block_native(words, index, count)
            assert block.tolist() == [rng.random() for _ in range(count)]
            assert (*words.tolist(), int(index[0])) == rng.getstate()[1]
        ffi, lib = native._checked_backend()
        out = np.zeros(4)
        past = np.array([625], dtype=np.int32)
        assert lib.repro_random_block(
            native._buffer(ffi, "uint32_t[]", words),
            native._buffer(ffi, "int32_t[]", past),
            native._buffer(ffi, "double[]", out), 4,
        ) == -1
        assert (out == 0).all()
