"""Per-address (PAs) extension — skewing beyond global schemes.

The paper's conclusion: "the same technique could be applied to remove
aliasing in other prediction methods, including per-address history
schemes".  This experiment carries that out: a conventional PAs
two-level predictor versus a skewed-PAs whose three second-level banks
are indexed by f0/f1/f2 over the (address, per-address-history) vector,
at 0.75x second-level storage (skewed banks are a quarter the size of
the single PAs table).

As with the global schemes, the skewed organisation pays off only once
capacity aliasing has vanished: at small tables it loses (redundancy
costs capacity), at conflict-dominated sizes it matches or beats the
bigger conventional table — the default size sits in the latter regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.predictors.two_level import PAsPredictor, SkewedPAsPredictor
from repro.sim.vectorized import simulate_fast

__all__ = ["PasExtensionResult", "run", "render"]


@dataclass(frozen=True)
class PasExtensionResult:
    history_bits: int
    pas_entries: int
    skewed_bank_entries: int
    #: benchmark -> {"pas": ..., "skewed-pas": ...}
    results: Dict[str, Dict[str, float]]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    history_table_bits: int = 10,
    history_bits: int = 6,
    pas_index_bits: int = 13,
) -> PasExtensionResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    skewed_bank_bits = pas_index_bits - 2  # 3 banks of a quarter: 0.75x
    results: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        pas = PAsPredictor(
            history_table_bits=history_table_bits,
            history_bits=history_bits,
            index_bits=pas_index_bits,
        )
        skewed = SkewedPAsPredictor(
            history_table_bits=history_table_bits,
            history_bits=history_bits,
            bank_index_bits=skewed_bank_bits,
        )
        results[trace.name] = {
            "pas": simulate_fast(pas, trace).misprediction_ratio,
            "skewed-pas": simulate_fast(skewed, trace).misprediction_ratio,
        }
    return PasExtensionResult(
        history_bits=history_bits,
        pas_entries=1 << pas_index_bits,
        skewed_bank_entries=1 << skewed_bank_bits,
        results=results,
    )


def render(result: PasExtensionResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    rows = [
        [
            benchmark,
            percent(values["pas"]),
            percent(values["skewed-pas"]),
        ]
        for benchmark, values in result.results.items()
    ]
    return format_table(
        [
            "benchmark",
            f"PAs ({result.pas_entries})",
            f"skewed PAs (3x{result.skewed_bank_entries})",
        ],
        rows,
        title=(
            "PAs extension: conventional vs skewed second level "
            f"({result.history_bits}-bit per-address history, "
            "skewed at 0.75x storage)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
