"""Skewing-function ablation — how much does the function family matter?

The paper requires index functions that are "different and independent"
and uses the H-based family from skewed-associative caches.  This
ablation isolates that choice:

- ``skew``   — the paper's f0/f1/f2 family (inter-bank dispersion
  property guaranteed);
- ``xor-shift`` — three cheap, merely *different* XOR-of-shifts
  functions with no dispersion guarantee;
- ``naive``  — the degenerate control: all three banks use the same
  truncation index, so majority voting is over three replicas and the
  predictor collapses to a single (smaller) table with 3x the cost.

Expected ordering (asserted by tests): skew <= xor-shift << naive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.gskew import SkewedPredictor
from repro.core.skew import (
    naive_family,
    skew_function_family,
    xor_shift_family,
)
from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.sim.vectorized import simulate_fast

__all__ = ["SkewAblationResult", "run", "render", "FAMILIES"]

FAMILIES = {
    "skew": skew_function_family,
    "xor-shift": xor_shift_family,
    "naive": naive_family,
}


@dataclass(frozen=True)
class SkewAblationResult:
    history_bits: int
    bank_entries: int
    #: benchmark -> family -> misprediction ratio
    results: Dict[str, Dict[str, float]]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    bank_entries: int = 512,
    history_bits: int = 4,
) -> SkewAblationResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    bank_bits = bank_entries.bit_length() - 1
    results: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        per_family: Dict[str, float] = {}
        for name, factory in FAMILIES.items():
            predictor = SkewedPredictor(
                bank_index_bits=bank_bits,
                history_bits=history_bits,
                banks=3,
                update_policy="partial",
                functions=factory(bank_bits, 3),
            )
            per_family[name] = simulate_fast(predictor, trace).misprediction_ratio
        results[trace.name] = per_family
    return SkewAblationResult(
        history_bits=history_bits,
        bank_entries=bank_entries,
        results=results,
    )


def render(result: SkewAblationResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    names = list(FAMILIES)
    rows: List[List[object]] = [
        [benchmark] + [percent(per_family[name]) for name in names]
        for benchmark, per_family in result.results.items()
    ]
    return format_table(
        ["benchmark"] + names,
        rows,
        title=(
            f"Skewing-function ablation (gskew 3x{result.bank_entries}, "
            f"{result.history_bits}-bit history, partial update)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
