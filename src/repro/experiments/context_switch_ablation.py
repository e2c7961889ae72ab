"""Context-switch ablation — history pollution vs table pollution.

The OS/multi-process character of the IBS traces hurts predictors in
two separable ways: foreign outcomes pollute the global-history
register, and foreign substreams occupy table entries.  This experiment
separates them by wrapping a gshare and a gskew in
:class:`~repro.predictors.flush.FlushOnSwitchPredictor`:

- **shared** — the baseline: one predictor, nothing flushed;
- **flush history** — the register is cleared at every address-space
  switch (upper bound on the cost of history pollution);
- **flush tables** — all counters are cleared at every switch (the
  extreme "private state, zero warm-up" point, showing that *sharing*
  tables is actually far better than isolating them, because warm-up
  dominates).

Expected shape (asserted by tests): flushing history changes little,
flushing tables is catastrophic — the aliasing problem is a *table*
problem, which is exactly why the paper attacks table organisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table, percent
from repro.predictors.flush import FlushOnSwitchPredictor
from repro.sim.config import make_predictor
from repro.sim.vectorized import simulate_fast

__all__ = ["ContextSwitchResult", "run", "render"]

VARIANTS = ("shared", "flush history", "flush tables")


@dataclass(frozen=True)
class ContextSwitchResult:
    base_spec: str
    #: benchmark -> variant -> misprediction ratio
    results: Dict[str, Dict[str, float]]
    #: benchmark -> observed context switches
    switches: Dict[str, int]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    base_spec: str = "gshare:1k:h8",
) -> ContextSwitchResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    results: Dict[str, Dict[str, float]] = {}
    switches: Dict[str, int] = {}
    for trace in traces:
        per_variant: Dict[str, float] = {}
        per_variant["shared"] = simulate_fast(
            make_predictor(base_spec), trace
        ).misprediction_ratio

        history_flusher = FlushOnSwitchPredictor(
            make_predictor(base_spec), flush_history=True, flush_tables=False
        )
        per_variant["flush history"] = simulate_fast(
            history_flusher, trace
        ).misprediction_ratio

        table_flusher = FlushOnSwitchPredictor(
            make_predictor(base_spec), flush_history=True, flush_tables=True
        )
        per_variant["flush tables"] = simulate_fast(
            table_flusher, trace
        ).misprediction_ratio

        results[trace.name] = per_variant
        switches[trace.name] = table_flusher.switches
    return ContextSwitchResult(
        base_spec=base_spec, results=results, switches=switches
    )


def render(result: ContextSwitchResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    rows = []
    for benchmark, per_variant in result.results.items():
        rows.append(
            [benchmark]
            + [percent(per_variant[v]) for v in VARIANTS]
            + [result.switches[benchmark]]
        )
    return format_table(
        ["benchmark"] + list(VARIANTS) + ["switches"],
        rows,
        title=(
            f"Context-switch ablation ({result.base_spec}): history vs "
            "table pollution"
        ),
    )


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
