"""Update-policy ablation — total vs partial vs lazy.

The paper compares total and partial update (Figure 8 and section 5.1)
and asks, as future work, whether other policies exist.  This experiment
adds the *lazy* policy (update only on an overall misprediction) as a
third point: it saves even more counter writes than partial but
under-trains the saturating counters, and loses — showing that partial
update sits at a sweet spot, not at a monotone "update less is better"
trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.sim.config import format_entries, make_predictor
from repro.sim.vectorized import simulate_fast

__all__ = ["UpdateAblationResult", "run", "render"]

POLICIES = ("total", "partial", "lazy")


@dataclass(frozen=True)
class UpdateAblationResult:
    history_bits: int
    bank_entries: int
    #: benchmark -> policy -> misprediction ratio
    results: Dict[str, Dict[str, float]]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    bank_entries: int = 512,
    history_bits: int = 4,
) -> UpdateAblationResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    token = format_entries(bank_entries)
    results: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        results[trace.name] = {
            policy: simulate_fast(
                make_predictor(f"gskew:3x{token}:h{history_bits}:{policy}"),
                trace,
            ).misprediction_ratio
            for policy in POLICIES
        }
    return UpdateAblationResult(
        history_bits=history_bits,
        bank_entries=bank_entries,
        results=results,
    )


def render(result: UpdateAblationResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    rows: List[List[object]] = [
        [benchmark] + [percent(per_policy[p]) for p in POLICIES]
        for benchmark, per_policy in result.results.items()
    ]
    return format_table(
        ["benchmark"] + list(POLICIES),
        rows,
        title=(
            f"Update-policy ablation (gskew 3x{result.bank_entries}, "
            f"{result.history_bits}-bit history)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
