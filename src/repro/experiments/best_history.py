"""Best history length per design — the paper's §6 recommendation.

"Based on our simulation results, 8 to 10 seems to be a reasonable
choice for history length for a 3x4K-entry gskewed table, while for
enhanced gskewed, 11 or 12 would be a better choice."

This experiment computes, per benchmark, the misprediction-minimising
history length for gskew and e-gskew at the scaled 3x512 geometry (and
gshare 4K for reference), plus the across-benchmark recommendation
(the history minimising the mean misprediction).  The reproduction
claim is relative: **e-gskew's best history is consistently longer than
gskew's**, because the address-indexed bank 0 keeps long histories
affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table
from repro.sim.config import format_entries, make_predictor
from repro.sim.vectorized import simulate_fast

__all__ = ["BestHistoryResult", "run", "render"]

DESIGNS = ("gskew", "egskew", "gshare")


@dataclass(frozen=True)
class BestHistoryResult:
    history_lengths: List[int]
    bank_entries: int
    gshare_entries: int
    #: design -> benchmark -> misprediction curve over history_lengths
    curves: Dict[str, Dict[str, List[float]]]

    def best(self, design: str, benchmark: str) -> int:
        """History length minimising misprediction for one curve."""
        curve = self.curves[design][benchmark]
        return self.history_lengths[curve.index(min(curve))]

    def recommended(self, design: str) -> int:
        """History minimising the mean misprediction over benchmarks."""
        benchmarks = list(self.curves[design])
        means = [
            sum(self.curves[design][b][i] for b in benchmarks)
            for i in range(len(self.history_lengths))
        ]
        return self.history_lengths[means.index(min(means))]


def _spec(design: str, history: int, bank: int, gshare_entries: int) -> str:
    if design == "gskew":
        return f"gskew:3x{format_entries(bank)}:h{history}:partial"
    if design == "egskew":
        return f"egskew:3x{format_entries(bank)}:h{history}:partial"
    return f"gshare:{format_entries(gshare_entries)}:h{history}"


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    history_lengths: Sequence[int] = tuple(range(0, 15)),
    bank_entries: int = 512,
    gshare_entries: int = 4096,
) -> BestHistoryResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    curves: Dict[str, Dict[str, List[float]]] = {
        design: {} for design in DESIGNS
    }
    for trace in traces:
        for design in DESIGNS:
            curves[design][trace.name] = [
                simulate_fast(
                    make_predictor(
                        _spec(design, history, bank_entries, gshare_entries)
                    ),
                    trace,
                ).misprediction_ratio
                for history in history_lengths
            ]
    return BestHistoryResult(
        history_lengths=list(history_lengths),
        bank_entries=bank_entries,
        gshare_entries=gshare_entries,
        curves=curves,
    )


def render(result: BestHistoryResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    benchmarks = list(result.curves[DESIGNS[0]])
    rows = []
    for benchmark in benchmarks:
        rows.append(
            [benchmark]
            + [result.best(design, benchmark) for design in DESIGNS]
        )
    rows.append(
        ["RECOMMENDED"]
        + [result.recommended(design) for design in DESIGNS]
    )
    return format_table(
        ["benchmark", "gskew best h", "e-gskew best h", "gshare best h"],
        rows,
        title=(
            f"Best history length (gskew/e-gskew 3x{result.bank_entries}, "
            f"gshare {result.gshare_entries}; paper §6 recommends longer "
            "histories for e-gskew)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
