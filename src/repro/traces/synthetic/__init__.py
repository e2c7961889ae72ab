"""Synthetic IBS-like workload generation."""

from repro.traces.synthetic.behavior import (
    BehaviorMix,
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)
from repro.traces.synthetic.cfg import (
    Program,
    ProgramConfig,
    build_program,
)
from repro.traces.synthetic.generator import WorkloadConfig, generate_trace
from repro.traces.synthetic.kernel import SchedulerConfig
from repro.traces.synthetic.validation import TraceProfile, profile_trace, validate_ibs_shape
from repro.traces.synthetic.workloads import (
    IBS_BENCHMARKS,
    IBS_EXTRA_BENCHMARKS,
    SPEC_BENCHMARKS,
    all_ibs_traces,
    clear_trace_cache,
    ibs_trace,
    ibs_workload,
)

__all__ = [
    "BehaviorMix",
    "BiasedBehavior",
    "BranchBehavior",
    "CorrelatedBehavior",
    "LoopBehavior",
    "MarkovBehavior",
    "PatternBehavior",
    "Program",
    "ProgramConfig",
    "build_program",
    "WorkloadConfig",
    "generate_trace",
    "SchedulerConfig",
    "TraceProfile",
    "profile_trace",
    "validate_ibs_shape",
    "IBS_BENCHMARKS",
    "IBS_EXTRA_BENCHMARKS",
    "SPEC_BENCHMARKS",
    "all_ibs_traces",
    "clear_trace_cache",
    "ibs_trace",
    "ibs_workload",
]
