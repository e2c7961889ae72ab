"""Figure 11 — extrapolated (analytical) vs measured gskew misprediction.

Methodology, exactly as in the paper (section 5.2):

- model side: measure the last-use distance of every dynamic
  (address, history) reference, measure the static taken-bias density
  ``b``, apply formulas (1) and (3) (p = 1 on first encounters), and add
  the unaliased misprediction rate measured with 1-bit counters
  (the model assumes 1-bit automatons);
- measured side: simulate the real 3-bank gskew with 1-bit counters and
  the *total* update policy (the model's assumptions).

The paper notes the model "always slightly overestimates" the measured
rate, because it ignores constructive aliasing; the reproduction asserts
that the extrapolation is an upper bound that tracks the measured curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_series
from repro.model.extrapolation import collect_distances, extrapolate_gskew
from repro.predictors.unaliased import UnaliasedPredictor
from repro.sim.config import format_entries, make_predictor
from repro.sim.vectorized import simulate_fast
from repro.traces.stats import bias_density

__all__ = ["Figure11Curves", "run", "render"]

HISTORY_BITS = 4
DEFAULT_FIG11_BANKS: Sequence[int] = tuple(1 << n for n in range(5, 12))


@dataclass(frozen=True)
class Figure11Curves:
    history_bits: int
    bank_sizes: List[int]
    #: benchmark -> {"extrapolated": [...], "measured": [...]}
    curves: Dict[str, Dict[str, List[float]]]
    #: benchmark -> measured static taken-bias density b
    bias: Dict[str, float]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    bank_sizes: Sequence[int] = DEFAULT_FIG11_BANKS,
    history_bits: int = HISTORY_BITS,
    jobs: Optional[int] = None,
) -> Figure11Curves:
    """Run the experiment; see the module docstring for the design.

    ``jobs`` is part of the uniform experiment contract; the dominant
    cost here is the shared per-trace distance profile (computed once,
    not per cell), so it is accepted and unused.
    """
    del jobs  # contract parameter; no per-cell fan-out to feed it to
    traces = load_benchmarks(benchmarks, scale)
    curves: Dict[str, Dict[str, List[float]]] = {}
    biases: Dict[str, float] = {}
    for trace in traces:
        # Distances and bias depend only on (trace, history): compute once.
        distances = collect_distances(trace, history_bits)
        bias = bias_density(trace, history_bits)["static_taken_bias"]
        biases[trace.name] = bias
        unaliased = simulate_fast(
            UnaliasedPredictor(history_bits, counter_bits=1), trace
        ).misprediction_ratio

        extrapolated: List[float] = []
        measured: List[float] = []
        for bank in bank_sizes:
            model = extrapolate_gskew(
                trace,
                history_bits,
                bank_entries=bank,
                unaliased_rate=unaliased,
                distances=distances,
                bias=bias,
            )
            extrapolated.append(model.misprediction_rate)
            measured.append(
                simulate_fast(
                    make_predictor(
                        f"gskew:3x{format_entries(bank)}:h{history_bits}"
                        ":c1:total"
                    ),
                    trace,
                ).misprediction_ratio
            )
        curves[trace.name] = {
            "extrapolated": extrapolated,
            "measured": measured,
        }
    return Figure11Curves(
        history_bits=history_bits,
        bank_sizes=list(bank_sizes),
        curves=curves,
        bias=biases,
    )


def render(result: Figure11Curves) -> str:
    """Render the result as the paper-shaped ASCII report."""
    blocks: List[str] = []
    for benchmark, series in result.curves.items():
        blocks.append(
            format_series(
                "per-bank entries",
                result.bank_sizes,
                series,
                title=(
                    f"Figure 11: extrapolated vs measured, {benchmark} "
                    f"(1-bit, total update, b = {result.bias[benchmark]:.3f})"
                ),
            )
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()


def render_plot(result: Figure11Curves) -> str:
    """ASCII line charts, one per benchmark."""
    from repro.experiments.ascii_plot import line_chart

    charts = []
    for benchmark, series in result.curves.items():
        charts.append(
            line_chart(
                result.bank_sizes,
                series,
                title=f"Figure 11: {benchmark}, model vs simulation",
            )
        )
    return "\n\n".join(charts)
