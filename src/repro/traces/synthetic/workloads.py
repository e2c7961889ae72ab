"""The IBS-Ultrix workload clones.

The paper drives every experiment with six traces from the
instruction-benchmark suite (IBS): groff, gs, mpeg_play, nroff, real_gcc
and verilog, each containing full user *and* operating-system activity
(it also traced sdet and video_play but omits them as unremarkable; we
define them too, for completeness).  Those traces are not publicly
available, so each clone here is a :class:`WorkloadConfig` whose shape
parameters are tuned to the per-benchmark characteristics the paper
reports:

- relative dynamic and static conditional-branch counts (Table 1),
  scaled by ~1/8 static and ~1/64..1/128 dynamic for Python-speed
  simulation;
- intrinsic predictability ordering (Table 2): mpeg_play and real_gcc
  hardest, nroff easiest;
- substream-ratio ordering (Table 2): real_gcc >> others at long
  histories (it has the most history-sensitive control flow);
- a strong OS component for all of them (kernel bursts plus multiple
  user processes sharing the predictor).

The clones are deterministic: ``ibs_trace("groff")`` always returns the
same trace for a given scale.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.generator import WorkloadConfig
from repro.traces.synthetic.kernel import SchedulerConfig
from repro.traces.trace import Trace

__all__ = [
    "IBS_BENCHMARKS",
    "IBS_EXTRA_BENCHMARKS",
    "SPEC_BENCHMARKS",
    "ibs_workload",
    "ibs_trace",
    "all_ibs_traces",
    "clear_trace_cache",
]

#: The six benchmarks every paper table/figure reports.
IBS_BENCHMARKS: Tuple[str, ...] = (
    "groff",
    "gs",
    "mpeg_play",
    "nroff",
    "real_gcc",
    "verilog",
)

#: Traced by the paper but omitted from its tables as unremarkable.
IBS_EXTRA_BENCHMARKS: Tuple[str, ...] = ("sdet", "video_play")

#: SPEC-like single-process presets (no kernel, no context switching) —
#: the workload class earlier prediction studies used, against which the
#: paper's citations contrast the OS-heavy IBS traces.
SPEC_BENCHMARKS: Tuple[str, ...] = (
    "spec_int_like",
    "spec_fp_like",
    "spec_compiler_like",
)


def _workload_table() -> Dict[str, WorkloadConfig]:
    """Construct all clone configurations (called once, cached below)."""

    def mix(
        bias: float,
        hard: float,
        loops: float = 0.18,
        correlated: float = 0.08,
        markov: float = 0.03,
        pattern: float = 0.015,
        correlated_bits: int = 8,
        noise: float = 0.03,
        trip_mean: int = 30,
    ) -> BehaviorMix:
        biased = max(0.05, 1.0 - loops - correlated - markov - pattern)
        return BehaviorMix(
            biased_weight=biased,
            loop_weight=loops,
            pattern_weight=pattern,
            correlated_weight=correlated,
            markov_weight=markov,
            bias_strength=bias,
            hard_fraction=hard,
            correlated_bits=correlated_bits,
            correlated_noise=noise,
            loop_trip_mean=trip_mean,
        )

    scheduler = SchedulerConfig(
        mean_quantum=1200,
        kernel_share=0.20,
        mean_kernel_burst=150,
        interrupt_rate=0.0008,
    )

    return {
        # groff: document formatter; mid-sized, fairly predictable.
        "groff": WorkloadConfig(
            name="groff",
            seed=101,
            length=135_000,
            processes=3,
            static_branches_per_process=250,
            procedures_per_process=28,
            mix=mix(bias=0.96, hard=0.02, correlated_bits=7),
            kernel_static_branches=340,
            scheduler=scheduler,
        ),
        # gs: ghostscript; large static footprint, mid-high mispredicts.
        "gs": WorkloadConfig(
            name="gs",
            seed=102,
            length=170_000,
            processes=3,
            static_branches_per_process=540,
            procedures_per_process=44,
            mix=mix(bias=0.94, hard=0.045, correlated_bits=8, noise=0.04),
            kernel_static_branches=400,
            scheduler=scheduler,
        ),
        # mpeg_play: data-dependent video decode; hardest branches.
        "mpeg_play": WorkloadConfig(
            name="mpeg_play",
            seed=103,
            length=95_000,
            processes=3,
            static_branches_per_process=210,
            procedures_per_process=24,
            mix=mix(
                bias=0.92,
                hard=0.055,
                markov=0.06,
                correlated=0.10,
                pattern=0.03,
                noise=0.06,
                trip_mean=16,
            ),
            kernel_static_branches=340,
            scheduler=scheduler,
        ),
        # nroff: smallest static footprint, most predictable, longest run.
        "nroff": WorkloadConfig(
            name="nroff",
            seed=104,
            length=250_000,
            processes=3,
            static_branches_per_process=190,
            procedures_per_process=22,
            mix=mix(
                bias=0.97,
                hard=0.015,
                loops=0.22,
                correlated=0.06,
                markov=0.02,
                pattern=0.01,
                noise=0.02,
                trip_mean=40,
            ),
            kernel_static_branches=320,
            scheduler=scheduler,
        ),
        # real_gcc: by far the largest static footprint and the most
        # history-diverse control flow (highest substream ratio and
        # compulsory aliasing in the paper).
        "real_gcc": WorkloadConfig(
            name="real_gcc",
            seed=105,
            length=165_000,
            processes=4,
            static_branches_per_process=620,
            procedures_per_process=60,
            mix=mix(
                bias=0.93,
                hard=0.05,
                correlated=0.14,
                correlated_bits=10,
                noise=0.05,
                trip_mean=20,
            ),
            kernel_static_branches=450,
            scheduler=scheduler,
        ),
        # verilog: smallest dynamic run, moderate difficulty.
        "verilog": WorkloadConfig(
            name="verilog",
            seed=106,
            length=67_000,
            processes=2,
            static_branches_per_process=220,
            procedures_per_process=26,
            mix=mix(bias=0.95, hard=0.03, correlated_bits=8),
            kernel_static_branches=360,
            scheduler=scheduler,
        ),
        # Simulated but omitted from the paper's tables (section 3.1).
        "sdet": WorkloadConfig(
            name="sdet",
            seed=107,
            length=120_000,
            processes=4,
            static_branches_per_process=280,
            procedures_per_process=30,
            mix=mix(bias=0.94, hard=0.04),
            kernel_static_branches=430,
            scheduler=scheduler,
        ),
        "video_play": WorkloadConfig(
            name="video_play",
            seed=108,
            length=100_000,
            processes=3,
            static_branches_per_process=220,
            procedures_per_process=24,
            mix=mix(bias=0.93, hard=0.05, markov=0.05, noise=0.05),
            kernel_static_branches=340,
            scheduler=scheduler,
        ),
        # SPEC-like presets: one process, no kernel, no interleaving —
        # the benign workload class the IBS-style traces are contrasted
        # against in the paper's motivation.
        "spec_int_like": WorkloadConfig(
            name="spec_int_like",
            seed=201,
            length=120_000,
            processes=1,
            static_branches_per_process=420,
            procedures_per_process=28,
            mix=mix(bias=0.94, hard=0.04, correlated_bits=8),
            kernel_static_branches=0,
            scheduler=SchedulerConfig(kernel_share=0.0),
        ),
        "spec_fp_like": WorkloadConfig(
            name="spec_fp_like",
            seed=202,
            length=120_000,
            processes=1,
            static_branches_per_process=180,
            procedures_per_process=14,
            mix=mix(
                bias=0.97,
                hard=0.01,
                loops=0.30,
                correlated=0.04,
                markov=0.01,
                trip_mean=60,
            ),
            kernel_static_branches=0,
            scheduler=SchedulerConfig(kernel_share=0.0),
        ),
        "spec_compiler_like": WorkloadConfig(
            name="spec_compiler_like",
            seed=203,
            length=120_000,
            processes=1,
            static_branches_per_process=800,
            procedures_per_process=50,
            mix=mix(bias=0.92, hard=0.05, correlated=0.14,
                    correlated_bits=10),
            kernel_static_branches=0,
            scheduler=SchedulerConfig(kernel_share=0.0),
        ),
    }


_WORKLOADS: Dict[str, WorkloadConfig] = _workload_table()
#: The in-process memo holds traces weakly: a trace lives as long as a
#: caller holds it, and one nobody holds any more is freed rather than
#: pinned until :func:`clear_trace_cache` (the disk cache serves it again).
_TRACE_CACHE: "weakref.WeakValueDictionary[Tuple[str, float], Trace]" = (
    weakref.WeakValueDictionary()
)


def ibs_workload(name: str) -> WorkloadConfig:
    """The clone configuration for an IBS benchmark name."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(_WORKLOADS))
        raise KeyError(f"unknown IBS benchmark {name!r}; known: {known}") from None


def ibs_trace(name: str, scale: float = 1.0) -> Trace:
    """Generate (and memoise) the trace of an IBS clone.

    Generation goes through the content-addressed disk cache
    (:mod:`repro.traces.cache`), so across processes and runs each
    (config, scale) trace is synthesised exactly once; within a process
    this memo avoids even the disk load while any caller still holds the
    trace.

    Args:
        name: benchmark name (see :data:`IBS_BENCHMARKS`).
        scale: dynamic-length multiplier; 1.0 is the default experiment
            scale described in DESIGN.md.
    """
    key = (name, scale)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        from repro.traces.cache import generate_trace_cached

        config = ibs_workload(name)
        if scale != 1.0:
            config = config.scaled(scale)
        trace = generate_trace_cached(config)
        _TRACE_CACHE[key] = trace
    return trace


def clear_trace_cache() -> None:
    """Drop memoised traces (tests use this to bound memory).

    A trace holds only its codes and its table, so a trace an outside
    reference keeps alive costs no more than it did in the cache.
    """
    _TRACE_CACHE.clear()


def all_ibs_traces(scale: float = 1.0) -> List[Trace]:
    """Traces for the six table/figure benchmarks, in paper order."""
    return [ibs_trace(name, scale) for name in IBS_BENCHMARKS]
