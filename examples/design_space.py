"""Design-space exploration: pick a predictor under a storage budget.

The paper's conclusion pitches skewed organisations as a die-area
flexibility tool: "Die-area constraints may not permit increasing a
1-bank predictor table from 16K to 32K, but a skewed organization offers
a middle point: 3 banks of 8K entries apiece".

This example plays chip architect: given a bit budget, enumerate every
design in the library that fits (gshare, gselect, bimodal, gskew,
e-gskew, hybrid at several histories), simulate them over a workload
mix, and rank them.

Run:  python examples/design_space.py [budget_bits]
"""

import sys

from repro.sim.config import format_entries, make_predictor
from repro.sim.vectorized import simulate_fast
from repro.traces.synthetic.workloads import ibs_trace

WORKLOADS = ("groff", "real_gcc", "verilog")


def candidate_specs(budget_bits: int):
    """Every library design whose storage fits the budget."""
    specs = []
    for history in (4, 8, 12):
        # Single-bank designs: largest power-of-two table that fits.
        for scheme in ("gshare", "gselect"):
            entries = 1
            while entries * 2 * 2 <= budget_bits:
                entries *= 2
            specs.append(f"{scheme}:{format_entries(entries)}:h{history}")
        # Skewed designs: 3 banks, each the largest that fits.
        bank = 1
        while 3 * bank * 2 * 2 <= budget_bits:
            bank *= 2
        specs.append(f"gskew:3x{format_entries(bank)}:h{history}:partial")
        specs.append(f"egskew:3x{format_entries(bank)}:h{history}:partial")
    entries = 1
    while entries * 2 * 2 <= budget_bits:
        entries *= 2
    specs.append(f"bimodal:{format_entries(entries)}")
    return specs


def main() -> None:
    budget_bits = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    traces = [ibs_trace(name, scale=0.4) for name in WORKLOADS]
    print(f"storage budget: {budget_bits} bits; "
          f"workloads: {', '.join(WORKLOADS)}\n")

    ranked = []
    for spec in candidate_specs(budget_bits):
        predictor = make_predictor(spec)
        if predictor.storage_bits > budget_bits:
            continue
        total_mispredicts = 0
        total_branches = 0
        for trace in traces:
            predictor.reset()
            result = simulate_fast(predictor, trace)
            total_mispredicts += result.mispredictions
            total_branches += result.conditional_branches
        ranked.append(
            (total_mispredicts / total_branches, spec, predictor.storage_bits)
        )

    ranked.sort()
    print(f"{'rank':>4s}  {'misprediction':>13s}  {'bits':>6s}  spec")
    for rank, (ratio, spec, bits) in enumerate(ranked, start=1):
        print(f"{rank:>4d}  {ratio:>12.2%}  {bits:>6d}  {spec}")

    best = ranked[0]
    print(f"\nbest design under {budget_bits} bits: {best[1]} "
          f"({best[0]:.2%} misprediction)")


if __name__ == "__main__":
    main()
