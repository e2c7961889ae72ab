"""Tests for trace generation and the IBS-clone registry."""

import weakref

import numpy as np
import pytest

from repro.traces.synthetic.generator import WorkloadConfig, generate_trace
from repro.traces.synthetic.workloads import (
    IBS_BENCHMARKS,
    IBS_EXTRA_BENCHMARKS,
    clear_trace_cache,
    ibs_trace,
    ibs_workload,
    trace_cache_key,
)


class TestGenerateTrace:
    def test_deterministic(self):
        config = WorkloadConfig(name="d", seed=5, length=6000, processes=2)
        a = generate_trace(config)
        b = generate_trace(config)
        assert np.array_equal(a.pcs, b.pcs)
        assert np.array_equal(a.takens, b.takens)

    def test_length_respected(self):
        trace = generate_trace(WorkloadConfig(seed=1, length=3000))
        assert len(trace) == 3000

    def test_kernel_addresses_present(self):
        trace = generate_trace(
            WorkloadConfig(seed=2, length=20_000, kernel_static_branches=200)
        )
        assert (trace.pcs >= 0x8000_0000).any()

    def test_processes_have_disjoint_segments(self):
        trace = generate_trace(
            WorkloadConfig(seed=3, length=20_000, processes=3)
        )
        user = trace.pcs[trace.pcs < 0x8000_0000]
        segments = {int(pc) >> 24 for pc in user}
        assert len(segments) == 3

    def test_scaled(self):
        config = WorkloadConfig(seed=4, length=10_000)
        assert config.scaled(0.5).length == 5000
        assert config.scaled(2.0).length == 20_000
        with pytest.raises(ValueError):
            config.scaled(0.0)


class TestRegistry:
    def test_all_benchmarks_defined(self):
        for name in IBS_BENCHMARKS + IBS_EXTRA_BENCHMARKS:
            assert ibs_workload(name).name == name

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown IBS benchmark"):
            ibs_workload("doom")

    def test_trace_cached(self):
        clear_trace_cache()
        a = ibs_trace("verilog", scale=0.05)
        b = ibs_trace("verilog", scale=0.05)
        assert a is b
        clear_trace_cache()
        c = ibs_trace("verilog", scale=0.05)
        assert c is not a
        assert np.array_equal(a.pcs, c.pcs)  # still deterministic

    def test_memo_does_not_pin_traces(self):
        # The memo finds a trace while a caller holds it, and lets it go
        # once nobody does, without waiting for clear_trace_cache().
        clear_trace_cache()
        held = ibs_trace("verilog", scale=0.05)
        assert trace_cache_key(held) == ("verilog", 0.05)
        assert ibs_trace("verilog", scale=0.05) is held
        gone = weakref.ref(ibs_trace("groff", scale=0.05))
        assert gone() is None
        assert trace_cache_key(held) == ("verilog", 0.05)

    def test_scale_shrinks(self):
        clear_trace_cache()
        small = ibs_trace("verilog", scale=0.05)
        assert len(small) == int(ibs_workload("verilog").length * 0.05)

    def test_relative_magnitudes_match_paper(self):
        """Table 1 orderings that drive the experiments."""
        configs = {name: ibs_workload(name) for name in IBS_BENCHMARKS}
        # nroff runs longest, verilog shortest.
        assert configs["nroff"].length == max(
            c.length for c in configs.values()
        )
        assert configs["verilog"].length == min(
            c.length for c in configs.values()
        )
        # real_gcc has the largest static footprint.
        static = {
            name: c.processes * c.static_branches_per_process
            for name, c in configs.items()
        }
        assert static["real_gcc"] == max(static.values())


class TestSpecPresets:
    def test_registry_has_spec_presets(self):
        from repro.traces.synthetic.workloads import SPEC_BENCHMARKS

        for name in SPEC_BENCHMARKS:
            config = ibs_workload(name)
            assert config.processes == 1
            assert config.scheduler.kernel_share == 0.0

    def test_spec_traces_single_segment_no_kernel(self):
        from repro.traces.synthetic.workloads import SPEC_BENCHMARKS

        for name in SPEC_BENCHMARKS:
            trace = ibs_trace(name, scale=0.1)
            assert not (trace.pcs >= 0x8000_0000).any()
            segments = {int(pc) >> 24 for pc in trace.pcs}
            assert len(segments) == 1

    def test_spec_fp_is_the_most_predictable(self):
        """The FP-like preset is loop-dominated and strongly biased —
        it must be markedly easier than the compiler-like preset."""
        from repro.sim import make_predictor, simulate

        fp = simulate(
            make_predictor("gshare:1k:h4"), ibs_trace("spec_fp_like", 0.3)
        )
        compiler = simulate(
            make_predictor("gshare:1k:h4"),
            ibs_trace("spec_compiler_like", 0.3),
        )
        assert fp.misprediction_ratio < compiler.misprediction_ratio
