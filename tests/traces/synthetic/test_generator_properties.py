"""Property-based tests over the whole synthetic-workload pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.generator import WorkloadConfig, generate_trace
from repro.traces.synthetic.kernel import SchedulerConfig

configs = st.builds(
    WorkloadConfig,
    name=st.just("prop"),
    seed=st.integers(min_value=1, max_value=10_000),
    length=st.integers(min_value=200, max_value=4_000),
    processes=st.integers(min_value=1, max_value=4),
    static_branches_per_process=st.integers(min_value=20, max_value=120),
    procedures_per_process=st.integers(min_value=2, max_value=12),
    mix=st.builds(
        BehaviorMix,
        bias_strength=st.floats(min_value=0.85, max_value=0.99),
        hard_fraction=st.floats(min_value=0.0, max_value=0.2),
        loop_trip_mean=st.integers(min_value=4, max_value=60),
    ),
    kernel_static_branches=st.sampled_from([0, 60, 150]),
    scheduler=st.builds(
        SchedulerConfig,
        mean_quantum=st.integers(min_value=50, max_value=2000),
        kernel_share=st.sampled_from([0.0, 0.1, 0.3]),
        mean_kernel_burst=st.integers(min_value=10, max_value=200),
        interrupt_rate=st.sampled_from([0.0, 0.001]),
    ),
)


@given(configs)
@settings(max_examples=25, deadline=None)
def test_trace_has_requested_length(config):
    assert len(generate_trace(config)) == config.length


@given(configs)
@settings(max_examples=15, deadline=None)
def test_generation_is_deterministic(config):
    import numpy as np

    a = generate_trace(config)
    b = generate_trace(config)
    assert np.array_equal(a.pcs, b.pcs)
    assert np.array_equal(a.takens, b.takens)
    assert np.array_equal(a.conditionals, b.conditionals)


@given(configs)
@settings(max_examples=20, deadline=None)
def test_event_wellformedness(config):
    trace = generate_trace(config)
    assert not (trace.pcs % 4).any()
    assert set(trace.takens.tolist()) <= {0, 1}
    assert set(trace.conditionals.tolist()) <= {0, 1}


@given(configs)
@settings(max_examples=15, deadline=None)
def test_conditional_fraction_sane(config):
    trace = generate_trace(config)
    if len(trace) < 500:
        return
    fraction = trace.conditional_count / len(trace)
    # Upper bound leaves room for the loop-heavy corner: with
    # loop_trip_mean=60 nearly every event is a conditional loop branch
    # and only calls/returns are unconditional (~1/60 of events).
    assert 0.25 < fraction < 0.995


@given(configs)
@settings(max_examples=15, deadline=None)
def test_segments_match_process_count(config):
    trace = generate_trace(config)
    user_segments = {
        int(pc) >> 24 for pc in trace.pcs if pc < 0x8000_0000
    }
    assert len(user_segments) <= config.processes
    kernel_present = bool((trace.pcs >= 0x8000_0000).any())
    kernel_expected = (
        config.kernel_static_branches > 0
        and config.scheduler.kernel_share > 0
    )
    if not kernel_expected:
        assert not kernel_present


@given(configs, st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=10, deadline=None)
def test_scaled_changes_only_length(config, factor):
    scaled = config.scaled(factor)
    assert scaled.length == max(1, int(config.length * factor))
    assert scaled.seed == config.seed
    assert scaled.processes == config.processes
