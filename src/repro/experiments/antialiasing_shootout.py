"""The 1997 anti-aliasing shootout: gskew vs agree vs bi-mode.

The skewed branch predictor was one of three designs published within
months of each other that attacked predictor-table aliasing without
tags:

- **gskew** (this paper) removes conflicts with redundancy + dispersion;
- **agree** (Sprangle et al., ISCA 1997) re-encodes predictions relative
  to a per-branch bias so interference becomes mostly harmless;
- **bi-mode** (Lee et al., MICRO 1997) splits the PHT by bias so that
  whatever interference remains is between like-biased branches;
- **2Bc-gskew** (the EV8-style successor) combines a bimodal component,
  two skewed banks and a meta-chooser — where the lineage ended up.

This experiment compares all of them — plus plain gshare and the
e-gskew — at (approximately) matched storage budgets over the IBS
clones.  It extends the paper's evaluation with the comparison the 1997
reader would have wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.sim.config import make_predictor
from repro.sim.vectorized import simulate_fast

__all__ = ["ShootoutResult", "run", "render", "contenders"]


def contenders(budget_bits: int, history_bits: int) -> Dict[str, str]:
    """Spec per design, each within ``budget_bits`` (2-bit counters).

    Sizing: gshare gets N = budget/2 entries; gskew/e-gskew 3 banks of
    N/4 (0.75x); agree a PHT of N/2 plus N/2 bias bits (~0.63x); bi-mode
    three tables of N/4 (0.75x).
    """
    entries = 1
    while entries * 2 * 2 <= budget_bits:
        entries *= 2

    def fmt(n: int) -> str:
        from repro.sim.config import format_entries

        return format_entries(n)

    h = history_bits
    return {
        "gshare": f"gshare:{fmt(entries)}:h{h}",
        "gskew (partial)": f"gskew:3x{fmt(entries // 4)}:h{h}:partial",
        "e-gskew": f"egskew:3x{fmt(entries // 4)}:h{h}:partial",
        "agree": f"agree:{fmt(entries // 2)}:h{h}",
        "bi-mode": f"bimode:{fmt(entries // 4)}:h{h}",
        "2Bc-gskew": f"2bcgskew:{fmt(entries // 4)}:h{h}",
    }


@dataclass(frozen=True)
class ShootoutResult:
    budget_bits: int
    history_bits: int
    specs: Dict[str, str]
    #: benchmark -> design -> (misprediction ratio, storage bits)
    results: Dict[str, Dict[str, Tuple[float, int]]]

    def mean_ratios(self) -> Dict[str, float]:
        """Arithmetic-mean misprediction per design over benchmarks."""
        designs = list(self.specs)
        means = {}
        for design in designs:
            values = [
                per_design[design][0] for per_design in self.results.values()
            ]
            means[design] = sum(values) / len(values)
        return means


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    budget_bits: int = 8192,
    history_bits: int = 8,
) -> ShootoutResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    specs = contenders(budget_bits, history_bits)
    results: Dict[str, Dict[str, Tuple[float, int]]] = {}
    for trace in traces:
        per_design: Dict[str, Tuple[float, int]] = {}
        for design, spec in specs.items():
            predictor = make_predictor(spec)
            if predictor.storage_bits > budget_bits:
                raise AssertionError(
                    f"{design} ({spec}) exceeds the {budget_bits}-bit budget"
                )
            result = simulate_fast(predictor, trace, label=spec)
            per_design[design] = (
                result.misprediction_ratio,
                result.storage_bits,
            )
        results[trace.name] = per_design
    return ShootoutResult(
        budget_bits=budget_bits,
        history_bits=history_bits,
        specs=specs,
        results=results,
    )


def render(result: ShootoutResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    designs = list(result.specs)
    rows: List[List[object]] = []
    for benchmark, per_design in result.results.items():
        rows.append(
            [benchmark]
            + [percent(per_design[design][0]) for design in designs]
        )
    means = result.mean_ratios()
    rows.append(["MEAN"] + [percent(means[design]) for design in designs])
    storage = next(iter(result.results.values()))
    header_rows = [
        ["(bits)"] + [str(storage[design][1]) for design in designs]
    ]
    return format_table(
        ["benchmark"] + designs,
        header_rows + rows,
        title=(
            f"Anti-aliasing shootout, budget {result.budget_bits} bits, "
            f"{result.history_bits}-bit history"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
