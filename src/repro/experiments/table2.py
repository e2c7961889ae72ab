"""Table 2 — the ideal unaliased predictor.

For history lengths 4 and 12 and both counter widths, the paper reports
per benchmark: the substream ratio (distinct histories per branch
address), the compulsory-aliasing percentage (first encounters over
dynamic branches) and the misprediction ratio of an infinite predictor
table (first encounters not scored).

The qualitative facts this reproduction asserts (tests in
``tests/experiments/test_table2.py``):

- 2-bit counters beat 1-bit counters everywhere;
- 12-bit history beats 4-bit history everywhere (intrinsically — with no
  table pressure, more context never hurts);
- the substream ratio grows steeply with history length;
- real_gcc has the largest substream population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.predictors.unaliased import UnaliasedPredictor
from repro.sim.vectorized import simulate_fast

__all__ = ["Table2Row", "Table2Result", "run", "render", "PAPER_TABLE2"]

#: Paper values: {(benchmark, history): (substream ratio, compulsory %,
#: 1-bit mispredict %, 2-bit mispredict %)}.
PAPER_TABLE2: Dict[Tuple[str, int], Tuple[float, float, float, float]] = {
    ("groff", 4): (1.82, 0.09, 5.47, 3.77),
    ("gs", 4): (1.91, 0.15, 7.03, 5.28),
    ("mpeg_play", 4): (1.83, 0.11, 9.08, 7.24),
    ("nroff", 4): (1.79, 0.04, 4.99, 3.72),
    ("real_gcc", 4): (2.36, 0.28, 9.38, 7.16),
    ("verilog", 4): (1.96, 0.13, 6.48, 4.57),
    ("groff", 12): (7.14, 0.35, 3.63, 2.56),
    ("gs", 12): (7.95, 0.61, 3.71, 2.77),
    ("mpeg_play", 12): (6.27, 0.37, 5.85, 4.52),
    ("nroff", 12): (5.71, 0.12, 3.04, 2.20),
    ("real_gcc", 12): (12.90, 1.55, 4.90, 3.93),
    ("verilog", 12): (9.24, 0.64, 3.74, 2.66),
}


@dataclass(frozen=True)
class Table2Row:
    benchmark: str
    history_bits: int
    substream_ratio: float
    compulsory_ratio: float
    mispredict_1bit: float
    mispredict_2bit: float


@dataclass(frozen=True)
class Table2Result:
    rows: List[Table2Row]

    def row(self, benchmark: str, history_bits: int) -> Table2Row:
        """Look up one (benchmark, history) row."""
        for row in self.rows:
            if row.benchmark == benchmark and row.history_bits == history_bits:
                return row
        raise KeyError((benchmark, history_bits))


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    history_lengths: Sequence[int] = (4, 12),
    jobs: Optional[int] = None,
) -> Table2Result:
    """Simulate the unaliased predictor for every (benchmark, history).

    ``jobs`` is part of the uniform experiment contract; the unaliased
    predictor is stateful per (trace, history) cell and the cell count
    is small, so it is accepted and unused.
    """
    del jobs  # contract parameter; no sweep grid to fan out
    traces = load_benchmarks(benchmarks, scale)
    rows: List[Table2Row] = []
    for history_bits in history_lengths:
        for trace in traces:
            one_bit = UnaliasedPredictor(history_bits, counter_bits=1)
            result_1 = simulate_fast(one_bit, trace)
            two_bit = UnaliasedPredictor(history_bits, counter_bits=2)
            result_2 = simulate_fast(two_bit, trace)
            rows.append(
                Table2Row(
                    benchmark=trace.name,
                    history_bits=history_bits,
                    substream_ratio=two_bit.substream_ratio,
                    compulsory_ratio=two_bit.compulsory_aliasing_ratio,
                    mispredict_1bit=result_1.misprediction_ratio,
                    mispredict_2bit=result_2.misprediction_ratio,
                )
            )
    return Table2Result(rows=rows)


def render(result: Table2Result) -> str:
    """Render the result as the paper-shaped ASCII report."""
    blocks: List[str] = []
    for history_bits in sorted({row.history_bits for row in result.rows}):
        rows = []
        for row in result.rows:
            if row.history_bits != history_bits:
                continue
            paper = PAPER_TABLE2.get((row.benchmark, history_bits))
            rows.append(
                [
                    row.benchmark,
                    f"{row.substream_ratio:.2f}",
                    percent(row.compulsory_ratio),
                    percent(row.mispredict_1bit),
                    percent(row.mispredict_2bit),
                    f"{paper[3]:.2f} %" if paper else "-",
                ]
            )
        blocks.append(
            format_table(
                [
                    "benchmark",
                    "substream",
                    "compulsory",
                    "1-bit",
                    "2-bit",
                    "paper 2-bit",
                ],
                rows,
                title=f"Table 2: unaliased predictor ({history_bits}-bit history)",
            )
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
