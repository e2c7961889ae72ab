"""Figure 5 — misprediction vs predictor size, gshare vs gskew (h=4).

Both curves are plotted against *total* entry count: gshare with ``N``
entries at x = N, and the 3-bank skewed predictor (2-bit counters,
partial update) with banks of ``B`` entries at x = 3B.  Storage in bits
is 2x the entry count for both (tag-less 2-bit counters), so the x axis
doubles as a storage axis and the paper's claims read off directly:

- at comparable storage, gskew consistently beats gshare once gshare's
  capacity aliasing has vanished;
- in that region gskew matches the accuracy of a gshare table of about
  *twice* its storage;
- gskew saturates earlier (little benefit beyond 3x4K at h=4 in the
  paper's scale), while gshare keeps improving to much larger tables.

Figure 6 is the same sweep at 12 history bits
(:mod:`repro.experiments.figure6`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import DEFAULT_SIZES, load_benchmarks
from repro.experiments.report import format_series
from repro.sim.config import format_entries
from repro.sim.sweep import sweep_specs

__all__ = ["SizeSweepCurves", "run", "render"]

HISTORY_BITS = 4


@dataclass(frozen=True)
class SizeSweepCurves:
    history_bits: int
    gshare_sizes: List[int]
    gskew_banks: List[int]
    #: benchmark -> ratios aligned with gshare_sizes
    gshare: Dict[str, List[float]]
    #: benchmark -> ratios aligned with gskew_banks (total = 3 * bank)
    gskew: Dict[str, List[float]]

    def gskew_totals(self) -> List[int]:
        """Total gskew entries per point (3 x bank size)."""
        return [3 * bank for bank in self.gskew_banks]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    history_bits: int = HISTORY_BITS,
    update_policy: str = "partial",
    counter_bits: int = 2,
    jobs: Optional[int] = None,
) -> SizeSweepCurves:
    """Sweep gshare over ``sizes`` and gskew over banks of ``sizes``/4.

    The bank grid is chosen so the two storage ranges overlap: banks of
    ``N/4`` put gskew points at 0.75N, interleaved with the gshare grid.
    ``jobs`` selects sweep threads (see :mod:`repro.sim.parallel`).
    """
    traces = load_benchmarks(benchmarks, scale)
    gskew_banks = [max(8, size // 4) for size in sizes]
    grid = sweep_specs(
        traces,
        series={
            "gshare": [
                f"gshare:{format_entries(size)}:h{history_bits}"
                f":c{counter_bits}"
                for size in sizes
            ],
            "gskew": [
                f"gskew:3x{format_entries(bank)}:h{history_bits}"
                f":c{counter_bits}:{update_policy}"
                for bank in gskew_banks
            ],
        },
        points=list(sizes),
        jobs=jobs,
    )
    gshare_curves: Dict[str, List[float]] = {
        trace.name: grid.ratios("gshare", trace.name) for trace in traces
    }
    gskew_curves: Dict[str, List[float]] = {
        trace.name: grid.ratios("gskew", trace.name) for trace in traces
    }
    return SizeSweepCurves(
        history_bits=history_bits,
        gshare_sizes=list(sizes),
        gskew_banks=gskew_banks,
        gshare=gshare_curves,
        gskew=gskew_curves,
    )


def render(result: SizeSweepCurves) -> str:
    """Render the result as the paper-shaped ASCII report."""
    figure = 5 if result.history_bits == 4 else 6
    blocks: List[str] = []
    for benchmark in result.gshare:
        points = [
            f"{size} / 3x{bank}"
            for size, bank in zip(result.gshare_sizes, result.gskew_banks)
        ]
        blocks.append(
            format_series(
                "entries (gshare / gskew)",
                points,
                {
                    "gshare": result.gshare[benchmark],
                    "gskew (0.75x storage)": result.gskew[benchmark],
                },
                title=(
                    f"Figure {figure}: misprediction vs size, {benchmark} "
                    f"({result.history_bits}-bit history)"
                ),
            )
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()


def render_plot(result: SizeSweepCurves) -> str:
    """ASCII line charts over the size grid, one per benchmark.

    Both series are drawn against the shared grid index; the x labels
    give the gshare entries (gskew points sit at 0.75x that storage).
    """
    from repro.experiments.ascii_plot import line_chart

    figure = 5 if result.history_bits == 4 else 6
    charts = []
    for benchmark in result.gshare:
        charts.append(
            line_chart(
                result.gshare_sizes,
                {
                    "gshare (N)": result.gshare[benchmark],
                    "gskew (3xN/4)": result.gskew[benchmark],
                },
                title=(
                    f"Figure {figure}: {benchmark} vs size "
                    f"(h={result.history_bits})"
                ),
            )
        )
    return "\n\n".join(charts)
