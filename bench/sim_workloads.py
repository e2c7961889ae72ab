"""Simulation workloads: the paper's sweeps, its model, long traces.

Each workload object is built over the generated traces and exposes
``measure(seconds, tracer)`` (the timed runs, with tracing when a
:class:`harness.Tracer` is given) and ``verify(outcome)`` (the untimed
differential checks and the seed-0 pins).
"""

from __future__ import annotations

import importlib
import time
from contextlib import nullcontext
from typing import Dict, Optional

from harness import JOBS, Outcome, Tracer, digest, fast, fast_pass, repeat_for

from repro.aliasing import measure_aliasing_reference, measure_aliasing_sweep
from repro.model.extrapolation import collect_distances, extrapolate_gskew
from repro.sim import (
    StageTimer,
    format_entries,
    make_predictor,
    simulate,
    simulate_fast,
    sweep_specs,
)
from repro.traces.stats import bias_density


def _module(name: str):
    """An optional module of the program (engine tiers come and go)."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _spans(tracer: Optional[Tracer]):
    return tracer.span if tracer is not None else (lambda label: nullcontext())


# -- sweep: the cells of Figures 5, 6, 7, 8 and 12 ---------------------------

#: x-axes copied from repro.experiments.common, so the bench's work stays
#: fixed if the experiments change.
SIZES = [1 << n for n in range(5, 14)]
BANKS = [1 << n for n in range(4, 11)]
HISTORIES = list(range(0, 15, 2))


def _figure_grids() -> Dict[str, tuple]:
    """``figure -> (series -> specs, points)``, as the figure modules build them."""
    e = format_entries
    size_sweep = {
        h: {
            "gshare": [f"gshare:{e(s)}:h{h}:c2" for s in SIZES],
            "gskew": [f"gskew:3x{e(max(8, s // 4))}:h{h}:c2:partial" for s in SIZES],
        }
        for h in (4, 12)
    }
    return {
        "figure5": (size_sweep[4], SIZES),
        "figure6": (size_sweep[12], SIZES),
        "figure7": (
            {
                "gskew 3x512": [f"gskew:3x512:h{h}:partial" for h in HISTORIES],
                "gshare 2k": [f"gshare:2k:h{h}" for h in HISTORIES],
            },
            HISTORIES,
        ),
        "figure8": (
            {
                "partial": [f"gskew:3x{e(b)}:h4:partial" for b in BANKS],
                "total": [f"gskew:3x{e(b)}:h4:total" for b in BANKS],
                "fa": [f"fa:{e(b)}:h4" for b in BANKS],
            },
            BANKS,
        ),
        "figure12": (
            {
                "e-gskew": [f"egskew:3x512:h{h}:partial" for h in HISTORIES],
                "gskew": [f"gskew:3x512:h{h}:partial" for h in HISTORIES],
                "gshare": [f"gshare:4k:h{h}" for h in HISTORIES],
            },
            HISTORIES,
        ),
    }


FIGURES = _figure_grids()

#: (figure, series, point index) cells re-run on the generic interpreter
#: over the first trace: one per fast-tier family and update policy.
DIFF_CELLS = [
    ("figure5", "gskew", 3),
    ("figure6", "gshare", 5),
    ("figure7", "gskew 3x512", 4),
    ("figure8", "total", 1),
    ("figure12", "e-gskew", 6),
    ("figure12", "gshare", 2),
]

#: tiers reported per cell; SimulationResult.engine names them
TIERS = ("native", "scan", "vectorized", "grid", "generic")


def _sweep_pass(traces, jobs: int):
    """One pass over every figure grid: cells and wall time per figure."""
    cells: Dict[str, list] = {}
    walls: Dict[str, float] = {}
    for figure, (series, points) in FIGURES.items():
        started = time.perf_counter()
        grid = sweep_specs(traces, series, points, jobs=jobs)
        walls[figure] = time.perf_counter() - started
        rows = []
        for name, per_trace in grid.series.items():
            for trace_name, results in per_trace.items():
                for index, result in enumerate(results):
                    rows.append(
                        [name, trace_name, index, result.conditional_branches, result.mispredictions]
                    )
        cells[figure] = rows
    return cells, walls


def _engine_tracer() -> Tracer:
    """Per-tier cell time of a serial sweep, from outside the engines.

    A fused grid call's self time (minus the per-cell fallbacks it makes)
    is shared evenly by its fused cells.
    """
    tracer = Tracer()
    per_cell_ids = set()

    def cell(tracer: Tracer, call) -> None:
        per_cell_ids.add(id(call.result))
        tracer.add(f"time.{call.result.engine}", call.elapsed)
        tracer.add(f"cells.{call.result.engine}", 1)

    def grid(tracer: Tracer, call) -> None:
        fused = [r for r in call.result if id(r) not in per_cell_ids]
        for result in fused:
            tracer.add(f"time.{result.engine}", call.self_elapsed / len(fused))
            tracer.add(f"cells.{result.engine}", 1)

    parallel = _module("repro.sim.parallel")
    tracer.wrap(parallel, "simulate_spec_grid", "grid", grid)
    tracer.wrap(parallel, "simulate_fast", "cell", cell)
    tracer.wrap(_module("repro.sim.scan_grid"), "simulate_fast", "cell", cell)
    return tracer


def _recovery_stats() -> Dict[str, int]:
    stats = getattr(_module("repro.sim.parallel"), "recovery_stats", None)
    return stats() if stats is not None else {}


class Sweep:
    """Figures 5-8 and 12 through ``sweep_specs(..., jobs=2)``."""

    def __init__(self, traces):
        self.traces = traces
        self.reference: Optional[dict] = None

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
        out = Outcome()
        before = _recovery_stats()
        if tracer is not None:
            tracer.wrap(_module("repro.sim.sweep"), "run_cells", "run_cells")
        try:
            runs = repeat_for(seconds, lambda: _sweep_pass(self.traces, JOBS))
        finally:
            if tracer is not None:
                tracer.restore()
        for cells, _ in runs:
            if self.reference is None:
                self.reference = cells
            out.attempted += sum(len(rows) for rows in cells.values())
            for figure, rows in cells.items():
                if rows != self.reference[figure]:
                    out.fail(f"{figure}: cells differ between passes")
        after = _recovery_stats()
        recovered = sum(after.get(k, 0) - before.get(k, 0) for k in ("retries", "timeouts"))
        if recovered:
            out.fail(f"{recovered} sweep chunk(s) needed worker recovery", recovered)

        wall = fast_pass([walls for _, walls in runs])
        branches = sum(row[3] for rows in self.reference.values() for row in rows)
        out.metrics["branches_per_s"] = branches / wall
        out.metrics["p50_ms"] = wall * 1e3
        out.detail["passes"] = (len(runs), "count")
        out.detail["cells_per_pass"] = (out.attempted // len(runs), "count")
        for figure in FIGURES:
            out.detail[f"{figure}_s"] = (fast([walls[figure] for _, walls in runs]), "s")

        if tracer is not None:
            passes = len(runs)
            run_cells_s = tracer.total.get("run_cells", 0.0) / passes
            serial = _engine_tracer()
            try:
                cells, _ = _sweep_pass(self.traces, 1)
            finally:
                serial.restore()
            if cells != self.reference:
                out.fail("serial sweep pass differs from the parallel passes")
            engine_s = sum(serial.counters.get(f"time.{t}", 0.0) for t in TIERS)
            out.layers["parallel.run_cells_s"] = run_cells_s
            out.layers["parallel.dispatch_overhead_s"] = JOBS * run_cells_s - engine_s
            for tier in TIERS:
                out.layers[f"engine.cells.{tier}"] = serial.counters.get(f"cells.{tier}", 0)
                out.layers[f"engine.time_s.{tier}"] = serial.counters.get(f"time.{tier}", 0.0)
            for key, value in after.items():
                out.layers[f"recovery.{key}"] = value
        return out

    def verify(self, out: Outcome) -> None:
        trace = self.traces[0]
        for figure, series, index in DIFF_CELLS:
            spec = FIGURES[figure][0][series][index]
            result = simulate(make_predictor(spec), trace, label=spec)
            want = [series, trace.name, index, result.conditional_branches, result.mispredictions]
            out.attempted += 1
            if want not in self.reference[figure]:
                out.fail(f"{figure} {spec} on {trace.name}: differs from the generic engine")
        for figure, rows in self.reference.items():
            out.pins[figure] = digest(rows)


# -- model: Figures 1, 2 and 11 from the aliasing and model layers ----------

FIG11_BANKS = [1 << n for n in range(5, 12)]

#: sizes re-measured with the per-reference aliasing implementation
REFERENCE_SIZES = (32, 256, 2048)


def _model_pass(traces, tracer: Optional[Tracer]):
    """One rebuild of Figures 1, 2 and 11: curves, seconds per trace, generic branches."""
    span = _spans(tracer)
    curves: Dict[str, list] = {}
    walls: Dict[str, float] = {}
    generic = 0
    for trace in traces:
        started = time.perf_counter()
        for figure, bits in (("figure1", 4), ("figure2", 12)):
            with span("aliasing.sweep"):
                sweep = measure_aliasing_sweep(trace, SIZES, bits)
            curves[f"{figure}/{trace.name}"] = [
                [sweep[s]["gshare"].total, sweep[s]["gselect"].total, sweep[s]["gshare"].fully_associative]
                for s in SIZES
            ]
        with span("model.distances"):
            distances = collect_distances(trace, 4)
        with span("model.bias"):
            bias = bias_density(trace, 4)["static_taken_bias"]
        with span("engine.generic"):
            unaliased = simulate(make_predictor("unaliased:h4:c1"), trace)
        rows = []
        for bank in FIG11_BANKS:
            with span("model.extrapolate"):
                model = extrapolate_gskew(
                    trace,
                    4,
                    bank_entries=bank,
                    unaliased_rate=unaliased.misprediction_ratio,
                    distances=distances,
                    bias=bias,
                )
            with span("engine.generic"):
                measured = simulate(
                    make_predictor(f"gskew:3x{format_entries(bank)}:h4:c1:total"), trace
                )
            rows.append([model.misprediction_rate, measured.mispredictions])
            generic += measured.conditional_branches
        generic += unaliased.conditional_branches
        curves[f"figure11/{trace.name}"] = rows
        walls[trace.name] = time.perf_counter() - started
    return curves, walls, generic


def _rounded(value):
    """Floats to 12 significant digits: pins survive last-bit float noise."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


class Model:
    """Figures 1, 2 and 11: aliasing sweeps, distance model, generic engine."""

    def __init__(self, traces):
        self.traces = traces
        self.reference: Optional[dict] = None
        # Branches every instrument reads per pass: two aliasing sweeps,
        # distances, bias and one generic run per Figure-11 point, plus
        # the unaliased run and one extrapolation per point.
        self.pass_branches = sum(
            t.conditional_count * (5 + 2 * len(FIG11_BANKS)) for t in traces
        )

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
        out = Outcome()
        runs = repeat_for(seconds, lambda: _model_pass(self.traces, tracer))
        for curves, _, _ in runs:
            curves = _rounded(curves)
            if self.reference is None:
                self.reference = curves
            out.attempted += len(curves)
            if curves != self.reference:
                out.fail("model curves differ between passes")
        wall = fast_pass([walls for _, walls, _ in runs])
        out.metrics["branches_per_s"] = self.pass_branches / wall
        out.metrics["p50_ms"] = wall * 1e3
        out.detail["passes"] = (len(runs), "count")
        if tracer is not None:
            passes = len(runs)
            generic = runs[0][2] * passes
            out.layers["engine.generic_bps"] = generic / tracer.total["engine.generic"]
            out.layers["aliasing.sweep_s"] = tracer.total["aliasing.sweep"] / passes
            out.layers["model.distances_s"] = tracer.total["model.distances"] / passes
            out.layers["model.extrapolate_s"] = tracer.total["model.extrapolate"] / passes
        return out

    def verify(self, out: Outcome) -> None:
        trace = self.traces[-1]
        curve = self.reference[f"figure1/{trace.name}"]
        for size in REFERENCE_SIZES:
            ref = measure_aliasing_reference(trace, size, 4)
            want = _rounded([ref["gshare"].total, ref["gselect"].total, ref["gshare"].fully_associative])
            out.attempted += 1
            if curve[SIZES.index(size)] != want:
                out.fail(f"aliasing sweep on {trace.name} at {size} entries differs from the reference")
        for figure in ("figure1", "figure2", "figure11"):
            out.pins[figure] = digest(
                {k: v for k, v in sorted(self.reference.items()) if k.startswith(figure + "/")}
            )


# -- trace_sim: per-branch engine throughput on long traces -----------------

#: specs by the engine path that runs them at the seed commit
GROUPS = {
    "walk": ["bimodal:4k", "gshare:64k:h16", "gskew:3x4k:h12:total", "gskew:1x4k:h12:lazy"],
    "partial": ["gskew:3x4k:h12:partial", "egskew:3x4k:h12:partial"],
    "fallback": ["agree:4k:h12", "gskew:3x4k:h12:lazy"],
}
SPECS = [spec for specs in GROUPS.values() for spec in specs]



def spec_key(spec: str) -> str:
    """A spec as a metric-name component (``gshare:64k:h16`` -> ``gshare_64k_h16``)."""
    return spec.replace(":", "_")


def _tier_functions() -> Dict[str, object]:
    """Engine tier entry points that take ``stage_timer=``, by engine name."""
    sim = _module("repro.sim")
    names = {"native": "simulate_native", "scan": "simulate_scan", "vectorized": "simulate_vectorized"}
    return {tier: getattr(sim, name) for tier, name in names.items() if hasattr(sim, name)}


def _sim_round(traces):
    """Every spec over every trace through ``simulate_fast``."""
    results: Dict[str, list] = {}
    seconds: Dict[str, float] = {}
    engines: Dict[str, str] = {}
    for spec in SPECS:
        rows, elapsed = [], 0.0
        for trace in traces:
            predictor = make_predictor(spec)
            started = time.perf_counter()
            result = simulate_fast(predictor, trace, label=spec)
            elapsed += time.perf_counter() - started
            rows.append([result.conditional_branches, result.mispredictions])
            engines[spec] = result.engine
        results[spec] = rows
        seconds[spec] = elapsed
    return results, seconds, engines


def _timed_tier(function, spec: str, traces, **kwargs) -> Optional[float]:
    """Seconds for one tier over every trace; None where it cannot run ``spec``."""
    elapsed = 0.0
    for trace in traces:
        predictor = make_predictor(spec)
        started = time.perf_counter()
        try:
            function(predictor, trace, label=spec, **kwargs)
        except ValueError:
            return None
        elapsed += time.perf_counter() - started
    return elapsed


class TraceSim:
    """``simulate_fast`` over long traces, grouped by engine path."""

    def __init__(self, traces):
        self.traces = traces
        self.branches = sum(t.conditional_count for t in traces)
        self.reference: Optional[dict] = None

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
        out = Outcome()
        runs = repeat_for(seconds, lambda: _sim_round(self.traces))
        for results, _, _ in runs:
            if self.reference is None:
                self.reference = results
            out.attempted += len(SPECS) * len(self.traces)
            if results != self.reference:
                out.fail("trace_sim results differ between rounds")
        spec_s = {spec: fast([times[spec] for _, times, _ in runs]) for spec in SPECS}
        wall = sum(spec_s.values())
        out.metrics["branches_per_s"] = self.branches * len(SPECS) / wall
        out.metrics["p50_ms"] = wall * 1e3
        out.detail["rounds"] = (len(runs), "count")
        group_bps = {
            group: self.branches * len(specs) / sum(spec_s[spec] for spec in specs)
            for group, specs in GROUPS.items()
        }
        for group, bps in group_bps.items():
            out.detail[f"{group}_bps"] = (bps, "1/s")
        engines = runs[0][2]
        for spec in SPECS:
            out.detail[f"engine.{spec_key(spec)}"] = (engines[spec], "tier")

        if tracer is not None:
            tiers = _tier_functions()
            for group, bps in group_bps.items():
                out.layers[f"engine.{group}_bps"] = bps
            for spec in SPECS:
                key = f"engine.{spec_key(spec)}"
                out.layers[f"{key}.bps"] = self.branches / spec_s[spec]
                staged = tiers.get(engines[spec])
                if staged is not None:
                    timer = StageTimer()
                    _timed_tier(staged, spec, self.traces, stage_timer=timer)
                    for stage, total in timer.totals.items():
                        out.layers[f"{key}.stage.{stage}_s"] = total
                for tier in ("scan", "vectorized"):
                    if tier in tiers:
                        elapsed = _timed_tier(tiers[tier], spec, self.traces)
                        if elapsed:
                            out.layers[f"{key}.{tier}_bps"] = self.branches / elapsed
        return out

    def verify(self, out: Outcome) -> None:
        trace = self.traces[-1]  # the shortest
        for spec in SPECS:
            fast = simulate_fast(make_predictor(spec), trace, label=spec)
            slow = simulate(make_predictor(spec), trace, label=spec)
            out.attempted += 1
            if fast != slow:
                out.fail(f"{spec}: simulate_fast differs from the generic engine")
        for spec in SPECS:
            out.pins[spec] = digest(self.reference[spec])
