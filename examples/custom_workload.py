"""Build a custom synthetic workload, save it, and evaluate predictors.

Shows the full trace-substrate API: defining a behaviour mix and
scheduler (how branch-heavy, how loopy, how much OS interleaving), and
the trace I/O round-trip a benchmarking pipeline would use to cache
generated workloads.

Run:  python examples/custom_workload.py
"""

import tempfile
from pathlib import Path

from repro.sim import make_predictor, simulate_fast
from repro.traces.io import load_trace, save_trace
from repro.traces.stats import substream_stats, trace_counts
from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.generator import WorkloadConfig, generate_trace
from repro.traces.synthetic.kernel import SchedulerConfig


def main() -> None:
    # A database-server-like workload: many processes, frequent context
    # switches, heavy kernel involvement, moderately hard branches.
    config = WorkloadConfig(
        name="dbserver",
        seed=2025,
        length=80_000,
        processes=5,
        static_branches_per_process=300,
        procedures_per_process=24,
        mix=BehaviorMix(
            bias_strength=0.93,
            hard_fraction=0.05,
            loop_weight=0.15,
            correlated_weight=0.10,
            markov_weight=0.05,
            loop_trip_mean=20,
        ),
        kernel_static_branches=500,
        scheduler=SchedulerConfig(
            mean_quantum=500,       # short quanta: lots of switching
            kernel_share=0.30,      # syscall-heavy
            mean_kernel_burst=120,
            interrupt_rate=0.002,
        ),
    )
    trace = generate_trace(config)
    counts = trace_counts(trace)
    print(f"generated {counts.name}: {counts.dynamic} conditional branches, "
          f"{counts.static} static, {counts.taken_ratio:.1%} taken")
    stats = substream_stats(trace, history_bits=8)
    print(f"substream ratio at h=8: {stats.substream_ratio:.2f} "
          f"(working set: {stats.substreams} (addr,hist) pairs)")

    # Round-trip through the on-disk cache format.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dbserver.npz"
        save_trace(trace, path)
        trace = load_trace(path)
        print(f"cached and reloaded from {path.name} "
              f"({path.stat().st_size // 1024} KiB)")

    print(f"\n{'predictor':28s} {'storage':>9s} {'misprediction':>14s}")
    for spec in (
        "bimodal:2k",
        "gshare:2k:h8",
        "gskew:3x512:h8:partial",
        "egskew:3x512:h8:partial",
        "hybrid:1k:h8",
        "fa:512:h8",
    ):
        result = simulate_fast(make_predictor(spec), trace, label=spec)
        print(f"{spec:28s} {result.storage_bits:>8d}b "
              f"{result.misprediction_ratio:>13.2%}")

    print("\ncontext-switch-heavy workloads are exactly where skewing "
          "pays: compare gskew against the same-storage gshare rows.")


if __name__ == "__main__":
    main()
