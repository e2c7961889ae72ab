"""Distributed-encoding ablation — future-work question 2.

Compares three encodings of the 3-bank skewed predictor:

- **replicated 2-bit** (the paper's design): 6N bits for 3 banks of N;
- **shared hysteresis** (the EV8-style answer): per-bank direction bits
  plus one shared hysteresis array — 4N bits;
- **1-bit** (no hysteresis at all): 3N bits.

Two views are reported: *same geometry* (equal N, unequal bits — how
much accuracy does each bit of encoding buy?) and *same budget*
(shared-hysteresis banks grown to spend the saved bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.gskew import SkewedPredictor
from repro.core.shared_hysteresis import SharedHysteresisSkewedPredictor
from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.sim.vectorized import simulate_fast

__all__ = ["EncodingAblationResult", "run", "render"]


@dataclass(frozen=True)
class EncodingAblationResult:
    history_bits: int
    bank_entries: int
    #: benchmark -> label -> (misprediction ratio, storage bits)
    results: Dict[str, Dict[str, tuple]]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    bank_entries: int = 512,
    history_bits: int = 8,
) -> EncodingAblationResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    bank_bits = bank_entries.bit_length() - 1

    def designs():
        return {
            "2-bit replicated": SkewedPredictor(
                bank_bits, history_bits, counter_bits=2,
                update_policy="partial",
            ),
            "shared hyst. 2-way": SharedHysteresisSkewedPredictor(
                bank_bits, history_bits, sharing=1, update_policy="partial"
            ),
            "shared hyst. 4-way": SharedHysteresisSkewedPredictor(
                bank_bits, history_bits, sharing=2, update_policy="partial"
            ),
            "1-bit": SkewedPredictor(
                bank_bits, history_bits, counter_bits=1,
                update_policy="partial",
            ),
        }

    results: Dict[str, Dict[str, tuple]] = {}
    for trace in traces:
        per_design = {}
        for label, predictor in designs().items():
            result = simulate_fast(predictor, trace)
            per_design[label] = (
                result.misprediction_ratio,
                result.storage_bits,
            )
        results[trace.name] = per_design
    return EncodingAblationResult(
        history_bits=history_bits,
        bank_entries=bank_entries,
        results=results,
    )


def render(result: EncodingAblationResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    labels = list(next(iter(result.results.values())))
    storage = next(iter(result.results.values()))
    rows = [["(bits)"] + [str(storage[label][1]) for label in labels]]
    for benchmark, per_design in result.results.items():
        rows.append(
            [benchmark] + [percent(per_design[label][0]) for label in labels]
        )
    return format_table(
        ["benchmark"] + labels,
        rows,
        title=(
            f"Distributed-encoding ablation (3x{result.bank_entries} "
            f"geometry, {result.history_bits}-bit history, partial update)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
