"""OS/multi-process pressure study — why IBS-class traces alias so much.

The paper's motivation (section 1) cites Gloy et al. and Sechrest et al.:
"large or multi-process workloads with a strong OS component exhibit
very high degrees of aliasing".  The synthetic substrate makes the
mechanism directly measurable: this experiment regenerates one workload
template while sweeping (a) the kernel's share of execution and (b) the
scheduling quantum, and reports the misprediction ratio of a fixed
gshare table plus its conflict-aliasing ratio.

Expected shape (asserted by tests): more kernel involvement and/or
faster context switching -> more concurrently-live substreams -> more
aliasing -> more mispredictions, with the predictor design held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.aliasing.three_cs import measure_aliasing
from repro.experiments.report import format_table, percent
from repro.sim.config import make_predictor
from repro.sim.vectorized import simulate_fast
from repro.traces.cache import generate_trace_cached
from repro.traces.synthetic.generator import WorkloadConfig
from repro.traces.synthetic.kernel import SchedulerConfig

__all__ = ["OsPressureResult", "run", "render"]


def _template(scale: float) -> WorkloadConfig:
    return WorkloadConfig(
        name="os-pressure",
        seed=424,
        length=max(2_000, int(120_000 * scale)),
        processes=3,
        static_branches_per_process=250,
        procedures_per_process=24,
        kernel_static_branches=400,
    )


@dataclass(frozen=True)
class OsPressureResult:
    entries: int
    history_bits: int
    #: (kernel_share, mean_quantum) -> (misprediction, conflict ratio)
    grid: Dict[Tuple[float, int], Tuple[float, float]]
    kernel_shares: List[float]
    quanta: List[int]


def run(
    scale: float = 1.0,
    kernel_shares: Sequence[float] = (0.0, 0.15, 0.35),
    quanta: Sequence[int] = (300, 1200, 6000),
    entries: int = 1024,
    history_bits: int = 4,
    predictor_spec: str = None,
) -> OsPressureResult:
    """Run the experiment; see the module docstring for the design."""
    if predictor_spec is None:
        predictor_spec = f"gshare:{entries}:h{history_bits}"
    template = _template(scale)
    grid: Dict[Tuple[float, int], Tuple[float, float]] = {}
    for share in kernel_shares:
        for quantum in quanta:
            config = replace(
                template,
                name=f"os-pressure-k{share}-q{quantum}",
                scheduler=SchedulerConfig(
                    mean_quantum=quantum,
                    kernel_share=share,
                    mean_kernel_burst=150,
                    interrupt_rate=0.0008 if share > 0 else 0.0,
                ),
            )
            trace = generate_trace_cached(config)
            mispredict = simulate_fast(
                make_predictor(predictor_spec), trace
            ).misprediction_ratio
            breakdown = measure_aliasing(
                trace, entries, history_bits, schemes=("gshare",)
            )["gshare"]
            grid[(share, quantum)] = (mispredict, breakdown.conflict)
    return OsPressureResult(
        entries=entries,
        history_bits=history_bits,
        grid=grid,
        kernel_shares=list(kernel_shares),
        quanta=list(quanta),
    )


def render(result: OsPressureResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    rows = []
    for share in result.kernel_shares:
        for quantum in result.quanta:
            mispredict, conflict = result.grid[(share, quantum)]
            rows.append(
                [
                    f"{share:.0%}",
                    quantum,
                    percent(mispredict),
                    percent(conflict),
                ]
            )
    return format_table(
        ["kernel share", "quantum", "misprediction", "conflict aliasing"],
        rows,
        title=(
            f"OS-pressure sweep (gshare {result.entries} entries, "
            f"{result.history_bits}-bit history)"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
