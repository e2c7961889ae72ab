"""Bank-count ablation — the paper's unreported 5-bank experiment.

Section 5.1: "Our simulations results (not reported here) showed that
there is very little benefit to increasing the number of banks to five;
... a more cost-effective use of resources would be to increase the size
of the banks rather than to increase their number."

This experiment reconstructs that comparison at matched total storage:
a 1-bank table (plain truncation-indexed), a 3-bank gskew, and a 5-bank
gskew, plus the alternative spend of the same budget on *larger* 3-bank
banks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.gskew import SkewedPredictor
from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.sim.vectorized import simulate_fast

__all__ = ["BankAblationResult", "run", "render"]


@dataclass(frozen=True)
class BankAblationResult:
    history_bits: int
    bank_entries: int
    #: benchmark -> config label -> misprediction ratio
    results: Dict[str, Dict[str, float]]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    bank_entries: int = 512,
    history_bits: int = 4,
) -> BankAblationResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    bank_bits = bank_entries.bit_length() - 1
    configurations = {
        # Same per-bank size, increasing bank count.
        "1 bank": dict(bank_index_bits=bank_bits, banks=1),
        "3 banks": dict(bank_index_bits=bank_bits, banks=3),
        "5 banks": dict(bank_index_bits=bank_bits, banks=5),
        # The paper's recommended alternative: spend the 5th-bank budget
        # (and more) on bank size instead.
        "3 banks, 2x size": dict(bank_index_bits=bank_bits + 1, banks=3),
    }
    results: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        per_config: Dict[str, float] = {}
        for label, kwargs in configurations.items():
            predictor = SkewedPredictor(
                history_bits=history_bits,
                update_policy="partial",
                **kwargs,
            )
            per_config[label] = simulate_fast(
                predictor, trace
            ).misprediction_ratio
        results[trace.name] = per_config
    return BankAblationResult(
        history_bits=history_bits,
        bank_entries=bank_entries,
        results=results,
    )


def render(result: BankAblationResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    labels = list(next(iter(result.results.values())))
    rows = [
        [benchmark] + [percent(per_config[label]) for label in labels]
        for benchmark, per_config in result.results.items()
    ]
    return format_table(
        ["benchmark"] + labels,
        rows,
        title=(
            f"Bank-count ablation (banks of {result.bank_entries}, "
            f"{result.history_bits}-bit history, partial update)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
