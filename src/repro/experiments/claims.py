"""The claims checker: verify every headline paper claim in one run.

`repro-experiments claims` evaluates the paper's qualitative claims on
the clone workloads and prints a PASS/FAIL verdict per claim.  This is
the executable form of EXPERIMENTS.md's status column — a user can
check in minutes that the reproduction still reproduces.

Each claim is a named predicate over freshly-run simulations; claims
share one trace set, and most are evaluated per benchmark and required
to hold on a stated fraction of them (the paper's own claims are "for
all benchmarks" or "except real_gcc"-shaped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.aliasing.three_cs import measure_aliasing
from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_table
from repro.sim.config import make_predictor
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace

__all__ = ["ClaimResult", "ClaimsReport", "run", "render", "CLAIMS"]


@dataclass(frozen=True)
class ClaimResult:
    name: str
    source: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ClaimsReport:
    results: List[ClaimResult]
    #: the trace scale the claims were checked at
    scale: float = 1.0

    @property
    def all_passed(self) -> bool:
        return all(result.passed for result in self.results)


def _ratio(spec: str, trace: Trace) -> float:
    return simulate_fast(make_predictor(spec), trace).misprediction_ratio


def _per_benchmark(
    traces: Sequence[Trace],
    predicate: Callable[[Trace], bool],
    required_fraction: float = 1.0,
):
    wins = [trace.name for trace in traces if predicate(trace)]
    passed = len(wins) >= required_fraction * len(traces) - 1e-9
    losses = [t.name for t in traces if t.name not in wins]
    detail = f"holds on {len(wins)}/{len(traces)}"
    if losses:
        detail += f" (fails: {', '.join(losses)})"
    return passed, detail


def _claim_conflict_dominates(traces):
    def predicate(trace):
        breakdown = measure_aliasing(trace, 4096, 4, schemes=("gshare",))[
            "gshare"
        ]
        # Past the knee capacity has (nearly) vanished: whatever
        # non-compulsory aliasing remains is conflict-dominated.
        return breakdown.capacity <= max(0.002, breakdown.conflict)

    return _per_benchmark(traces, predicate)


def _claim_gselect_aliases_more(traces):
    def predicate(trace):
        measured = measure_aliasing(trace, 1024, 8)
        return measured["gselect"].total >= measured["gshare"].total * 0.95

    return _per_benchmark(traces, predicate)


def _claim_gskew_beats_gshare(traces):
    def predicate(trace):
        return _ratio("gskew:3x1k:h4:partial", trace) <= _ratio(
            "gshare:4k:h4", trace
        ) * 1.03

    return _per_benchmark(traces, predicate, required_fraction=5 / 6)


def _claim_half_storage(traces):
    def predicate(trace):
        return _ratio("gskew:3x1k:h4:partial", trace) <= _ratio(
            "gshare:8k:h4", trace
        ) * 1.08

    return _per_benchmark(traces, predicate, required_fraction=5 / 6)


def _claim_partial_beats_total(traces):
    def predicate(trace):
        return _ratio("gskew:3x512:h4:partial", trace) <= _ratio(
            "gskew:3x512:h4:total", trace
        ) * 1.01

    return _per_benchmark(traces, predicate)


def _claim_gskew_matches_fa(traces):
    def predicate(trace):
        return (
            abs(
                _ratio("gskew:3x256:h4:partial", trace)
                - _ratio("fa:256:h4", trace)
            )
            < 0.02
        )

    return _per_benchmark(traces, predicate)


def _claim_egskew_wins_long_history(traces):
    def predicate(trace):
        return _ratio("egskew:3x512:h12:partial", trace) <= _ratio(
            "gskew:3x512:h12:partial", trace
        ) * 1.01

    return _per_benchmark(traces, predicate)


def _claim_five_banks_marginal(traces):
    def predicate(trace):
        return (
            abs(
                _ratio("gskew:5x512:h4:partial", trace)
                - _ratio("gskew:3x512:h4:partial", trace)
            )
            < 0.01
        )

    return _per_benchmark(traces, predicate)


def _claim_model_overestimates(traces):
    from repro.model.extrapolation import extrapolate_gskew
    from repro.predictors.unaliased import UnaliasedPredictor

    def predicate(trace):
        unaliased = simulate_fast(
            UnaliasedPredictor(4, counter_bits=1), trace
        ).misprediction_ratio
        model = extrapolate_gskew(
            trace, 4, bank_entries=256, unaliased_rate=unaliased
        ).misprediction_rate
        measured = _ratio("gskew:3x256:h4:c1:total", trace)
        return model >= measured * 0.9

    return _per_benchmark(traces, predicate)


def _claim_destructive_dominates(traces):
    from repro.aliasing.interference import classify_interference

    def predicate(trace):
        breakdown = classify_interference(trace, 1024, 4)
        return breakdown.destructive > breakdown.constructive

    return _per_benchmark(traces, predicate)


#: claim name -> (paper source, checker over the trace list)
CLAIMS: Dict[str, tuple] = {
    "conflict aliasing dominates past the capacity knee": (
        "Figures 1-2",
        _claim_conflict_dominates,
    ),
    "gselect aliases more than gshare": (
        "Section 3.2",
        _claim_gselect_aliases_more,
    ),
    "gskew beats gshare at 25% less storage (post-knee)": (
        "Figure 5",
        _claim_gskew_beats_gshare,
    ),
    "gskew approaches gshare of ~2x its storage": (
        "Section 5.1 (half-storage claim)",
        _claim_half_storage,
    ),
    "partial update beats total update": (
        "Figure 8 / Section 5.1",
        _claim_partial_beats_total,
    ),
    "3N tag-less gskew ~ N-entry fully-associative LRU": (
        "Figure 8",
        _claim_gskew_matches_fa,
    ),
    "e-gskew beats gskew at long history": (
        "Figure 12 / Section 6",
        _claim_egskew_wins_long_history,
    ),
    "5 banks bring negligible benefit over 3": (
        "Section 5.1",
        _claim_five_banks_marginal,
    ),
    "the analytical model (slightly) overestimates": (
        "Figure 11 / Section 5.2",
        _claim_model_overestimates,
    ),
    "destructive interference dominates constructive": (
        "Section 1 (Young et al.)",
        _claim_destructive_dominates,
    ),
}


def run(
    scale: float = 1.0, benchmarks: Optional[Sequence[str]] = None
) -> ClaimsReport:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    results: List[ClaimResult] = []
    for name, (source, checker) in CLAIMS.items():
        passed, detail = checker(traces)
        results.append(
            ClaimResult(name=name, source=source, passed=passed, detail=detail)
        )
    return ClaimsReport(results=results, scale=scale)


def render(report: ClaimsReport) -> str:
    """Render the result as the paper-shaped ASCII report."""
    rows = [
        [
            "PASS" if result.passed else "FAIL",
            result.name,
            result.source,
            result.detail,
        ]
        for result in report.results
    ]
    table = format_table(
        ["verdict", "claim", "paper source", "detail"],
        rows,
        title=f"Paper-claims checklist (scale {report.scale:g})",
    )
    footer = (
        "\nALL CLAIMS REPRODUCED"
        if report.all_passed
        else "\nSOME CLAIMS FAILED — see details above"
    )
    return table + footer


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
