"""Enhanced-gskew bank-0 ablation.

Section 6 indexes bank 0 by pure address truncation.  This ablation
interpolates between e-gskew and plain gskew by hashing 0, 2, 4, ... low
history bits into bank 0 (``bank0_history_bits``), at a long history
where the designs diverge.  It answers the natural design question the
paper leaves open: is *zero* history in the tie-breaking bank actually
the right amount?  (At long histories, yes or nearly so: bank 0's value
is its short last-use distance, which each added history bit dilutes.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.egskew import EnhancedSkewedPredictor
from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.sim.vectorized import simulate_fast

__all__ = ["EgskewAblationResult", "run", "render"]


@dataclass(frozen=True)
class EgskewAblationResult:
    history_bits: int
    bank_entries: int
    bank0_variants: List[int]
    #: benchmark -> bank0_history_bits -> misprediction ratio
    results: Dict[str, Dict[int, float]]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    bank_entries: int = 512,
    history_bits: int = 12,
    bank0_variants: Sequence[int] = (0, 2, 4, 8, 12),
) -> EgskewAblationResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    bank_bits = bank_entries.bit_length() - 1
    variants = [v for v in bank0_variants if v <= history_bits]
    results: Dict[str, Dict[int, float]] = {}
    for trace in traces:
        per_variant: Dict[int, float] = {}
        for bank0_bits in variants:
            predictor = EnhancedSkewedPredictor(
                bank_index_bits=bank_bits,
                history_bits=history_bits,
                update_policy="partial",
                bank0_history_bits=bank0_bits,
            )
            per_variant[bank0_bits] = simulate_fast(
                predictor, trace
            ).misprediction_ratio
        results[trace.name] = per_variant
    return EgskewAblationResult(
        history_bits=history_bits,
        bank_entries=bank_entries,
        bank0_variants=variants,
        results=results,
    )


def render(result: EgskewAblationResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    headers = ["benchmark"] + [
        f"bank0 h={v}" for v in result.bank0_variants
    ]
    rows: List[List[object]] = [
        [benchmark]
        + [percent(per_variant[v]) for v in result.bank0_variants]
        for benchmark, per_variant in result.results.items()
    ]
    return format_table(
        headers,
        rows,
        title=(
            f"e-gskew bank-0 ablation (3x{result.bank_entries}, "
            f"{result.history_bits}-bit history; h=0 is the paper's design, "
            f"h={result.history_bits} is plain gskew's f0 replaced by "
            "a gshare-style bank)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
