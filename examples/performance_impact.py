"""From misprediction ratios to end performance.

"As modern microprocessors employ deeper pipelines and issue multiple
instructions per cycle, they are becoming increasingly dependent on
accurate branch prediction" — the paper's opening sentence. This example
closes that loop: it runs the predictor line-up over a workload and uses
the first-order pipeline model to show what the accuracy differences are
worth in IPC on machines of different depths.

Run:  python examples/performance_impact.py [benchmark]
"""

import sys

from repro.sim.config import make_predictor
from repro.sim.cost import PipelineModel, speedup
from repro.sim.vectorized import simulate_fast
from repro.traces.synthetic.workloads import ibs_trace

LINEUP = [
    "bimodal:2k",
    "gshare:2k:h8",
    "gskew:3x512:h8:partial",
    "egskew:3x512:h8:partial",
    "2bcgskew:512:h8",
]

MACHINES = {
    "5-stage (classic)": PipelineModel(
        base_cpi=1.0, misprediction_penalty=3.0, branch_frequency=0.18
    ),
    "EV6-class": PipelineModel(
        base_cpi=0.5, misprediction_penalty=12.0, branch_frequency=0.18
    ),
    "deep speculative": PipelineModel(
        base_cpi=0.35, misprediction_penalty=25.0, branch_frequency=0.18
    ),
}


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "groff"
    trace = ibs_trace(benchmark, scale=0.5)
    results = [
        simulate_fast(make_predictor(spec), trace, label=spec) for spec in LINEUP
    ]
    baseline = results[0]  # bimodal anchors the comparison

    print(f"workload {benchmark}; speedups are vs {baseline.predictor}\n")
    header = f"{'predictor':26s} {'mispred':>8s}"
    for machine in MACHINES:
        header += f" {machine:>18s}"
    print(header)
    for result in results:
        row = f"{result.predictor:26s} {result.misprediction_ratio:>7.2%}"
        for model in MACHINES.values():
            row += f" {speedup(result, baseline, model):>17.3f}x"
        print(row)

    deep = MACHINES["deep speculative"]
    best = min(results, key=lambda r: r.misprediction_ratio)
    estimate = deep.estimate(best)
    print(
        f"\non the deep machine, {best.predictor} still spends "
        f"{estimate.branch_penalty_share:.1%} of cycles refilling after "
        "branch mispredictions —"
    )
    print("which is why this entire line of research existed.")


if __name__ == "__main__":
    main()
