"""Workload-class study: IBS-style (OS-heavy) vs SPEC-style traces.

The paper's motivation cites Gloy et al. and Sechrest et al.: system
workloads alias far more than the single-process SPEC-style traces that
earlier prediction studies used, and therefore need much larger tables
(or, the paper's thesis, conflict-removal).  This experiment measures
exactly that contrast on the synthetic substrate: the same predictor
and the same 3Cs instruments over the IBS clones versus the SPEC-like
single-process presets.

Expected shape (asserted by tests): SPEC-style traces show much lower
conflict aliasing and lower misprediction at the same table size, and
smaller tables suffice — so conclusions drawn on SPEC-style workloads
understate the aliasing problem, which is why the paper evaluates on
IBS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.aliasing.three_cs import measure_aliasing
from repro.experiments.report import format_table, percent
from repro.sim.config import make_predictor
from repro.sim.vectorized import simulate_fast
from repro.traces.synthetic.workloads import (
    IBS_BENCHMARKS,
    SPEC_BENCHMARKS,
    ibs_trace,
)

__all__ = ["WorkloadClassResult", "run", "render"]


@dataclass(frozen=True)
class WorkloadClassRow:
    benchmark: str
    workload_class: str
    misprediction: float
    conflict: float
    capacity: float


@dataclass(frozen=True)
class WorkloadClassResult:
    entries: int
    history_bits: int
    rows: Dict[str, WorkloadClassRow]

    def class_mean(self, workload_class: str, field: str) -> float:
        """Mean of ``field`` over one workload class."""
        values = [
            getattr(row, field)
            for row in self.rows.values()
            if row.workload_class == workload_class
        ]
        return sum(values) / len(values) if values else 0.0


def run(
    scale: float = 1.0,
    ibs: Optional[Sequence[str]] = None,
    spec: Optional[Sequence[str]] = None,
    entries: int = 1024,
    history_bits: int = 8,
) -> WorkloadClassResult:
    """Run the experiment; see the module docstring for the design."""
    groups = {
        "IBS-like": list(ibs) if ibs is not None else list(IBS_BENCHMARKS),
        "SPEC-like": list(spec) if spec is not None else list(SPEC_BENCHMARKS),
    }
    spec_string = f"gshare:{entries}:h{history_bits}"
    rows: Dict[str, WorkloadClassRow] = {}
    for workload_class, names in groups.items():
        for name in names:
            trace = ibs_trace(name, scale)
            mispredict = simulate_fast(
                make_predictor(spec_string), trace
            ).misprediction_ratio
            breakdown = measure_aliasing(
                trace, entries, history_bits, schemes=("gshare",)
            )["gshare"]
            rows[name] = WorkloadClassRow(
                benchmark=name,
                workload_class=workload_class,
                misprediction=mispredict,
                conflict=breakdown.conflict,
                capacity=breakdown.capacity,
            )
    return WorkloadClassResult(
        entries=entries, history_bits=history_bits, rows=rows
    )


def render(result: WorkloadClassResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    table_rows = []
    for row in result.rows.values():
        table_rows.append(
            [
                row.benchmark,
                row.workload_class,
                percent(row.misprediction),
                percent(row.conflict),
                percent(row.capacity),
            ]
        )
    for workload_class in ("IBS-like", "SPEC-like"):
        table_rows.append(
            [
                f"MEAN ({workload_class})",
                workload_class,
                percent(result.class_mean(workload_class, "misprediction")),
                percent(result.class_mean(workload_class, "conflict")),
                percent(result.class_mean(workload_class, "capacity")),
            ]
        )
    return format_table(
        ["benchmark", "class", "misprediction", "conflict", "capacity"],
        table_rows,
        title=(
            f"Workload-class study (gshare {result.entries} entries, "
            f"{result.history_bits}-bit history): OS-heavy vs "
            "single-process traces"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
