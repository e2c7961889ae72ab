"""The analytical model as a design tool: predict before you simulate.

Uses the paper's section 5.2 model to answer, for a given workload and
bank size, "will skewing win?" — and then checks the answer against a
real simulation.

The model says: a 3x(N/3)-entry gskew beats an N-entry direct-mapped
table for references with last-use distance below ~N/10, and loses
beyond.  So the verdict depends on the workload's distance profile,
which we measure with the library's Fenwick-tree tracker.

Run:  python examples/analytical_model.py [benchmark]
"""

import sys

from repro.aliasing.distance import distance_histogram
from repro.model.analytical import crossover_distance
from repro.model.extrapolation import collect_distances, extrapolate_gskew
from repro.predictors.unaliased import UnaliasedPredictor
from repro.sim import make_predictor, simulate_fast
from repro.traces.synthetic.workloads import ibs_trace


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "groff"
    history_bits = 4
    trace = ibs_trace(benchmark, scale=0.5)
    print(f"workload {benchmark}, history {history_bits} bits")

    # 1. Measure the last-use-distance profile.
    distances = collect_distances(trace, history_bits)
    buckets, first = distance_histogram(distances)
    print("\nlast-use-distance profile (log2 buckets):")
    for slot, count in enumerate(buckets):
        low = (1 << slot) - 1
        share = count / len(distances)
        if share >= 0.005:
            print(f"  D ~ {low:>6d}+ : {share:>6.1%} {'#' * int(share * 80)}")
    print(f"  first encounters: {first / len(distances):.1%}")

    # 2. Where is the conflict/capacity crossover for a 3072-entry budget?
    total_entries = 3072
    crossover = crossover_distance(total_entries)
    short = sum(
        1 for d in distances if d is not None and d <= crossover
    ) / len(distances)
    print(f"\nequal-storage crossover for {total_entries} entries: "
          f"D ~ {crossover} (paper: ~N/10 = {total_entries // 10})")
    print(f"references below the crossover: {short:.1%} — "
          "these are the conflict-aliasing region where skewing wins.")

    # 3. Extrapolate and verify against simulation (1-bit, total update,
    #    the model's assumptions).
    unaliased = simulate_fast(
        UnaliasedPredictor(history_bits, counter_bits=1), trace
    ).misprediction_ratio
    print(f"\n{'per-bank N':>10s} {'model':>8s} {'simulated':>10s}")
    for bank in (128, 512, 2048):
        model = extrapolate_gskew(
            trace,
            history_bits,
            bank_entries=bank,
            unaliased_rate=unaliased,
            distances=distances,
        )
        measured = simulate_fast(
            make_predictor(f"gskew:3x{bank}:h{history_bits}:c1:total"), trace
        )
        print(f"{bank:>10d} {model.misprediction_rate:>7.2%} "
              f"{measured.misprediction_ratio:>9.2%}")
    print("\nthe model slightly overestimates (it ignores constructive "
          "aliasing), exactly as the paper reports for Figure 11.")


if __name__ == "__main__":
    main()
