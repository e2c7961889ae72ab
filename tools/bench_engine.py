"""Benchmark the simulation engines and the parallel sweep runner.

Times, on one IBS-clone trace:

1. **engine** — branches/second of the generic interpreter
   (``repro.sim.engine.simulate``) vs the vectorized index-precompute
   engine (``repro.sim.vectorized.simulate_vectorized``) for each
   supported predictor family, checking the results are identical;
2. **scan** — the same trace and flags through all three engine tiers
   (generic vs vectorized counter loop vs the transition-composition
   scan of ``repro.sim.scan``) for every spec with a scan path,
   including per-stage wall-clock (precompute / argsort / scan /
   reduce) from :class:`repro.sim.profile.StageTimer`;
3. **sweep** — wall-clock of a gshare/gskew size sweep run serially on
   the generic engine, serially on the fast engines (the
   single-process speedup), and through the multiprocessing runner at
   each requested ``--jobs`` value (values above ``cpu_count`` are
   recorded as skipped: oversubscribed workers only measure scheduler
   noise);
4. **aliasing** — wall-clock of the Figure-1-style 3Cs decomposition
   over the full table-size grid: the streaming reference
   (``measure_aliasing_reference`` once per size) vs the one-pass
   vectorized engine (``measure_aliasing_sweep``), checking the
   breakdowns are identical;
5. **serving** — the multi-tenant serving layer under load:
   ``repro.serving.loadgen`` replays every IBS workload as several
   interleaved sessions through one in-process
   :class:`~repro.serving.server.PredictionService`, reporting p50/p99
   micro-batch request latency and sustained branches/s, and verifying
   every tenant's counts and final predictor state against a serial
   ``simulate_fast`` run of the same sub-trace (``parity_gaps`` must
   stay empty — interleaving and batching are required to be invisible);
6. **native** — the compiled C kernel (``repro.sim.native``) vs the
   numpy scan on the scan section's specs plus the LAZY/PARTIAL specs
   the C map-code walks now cover, with per-stage wall-clock
   (precompute / bucket or sort / scan / reduce), the grouping
   ``sort_strategy`` each spec takes (direct-bucket vs lsd vs
   threaded-lsd), branches/s, 100M-target status per strategy, and the
   dispatch tier ``simulate_fast`` actually picks.  The section header
   records ``native_available`` and ``compiler_info()`` — compiler
   version, thread backend and the ``REPRO_NATIVE_THREADS`` resolution
   — so throughput numbers carry the toolchain and worker count that
   produced them; when the backend cannot build the section degrades to
   that header instead of failing.

The numbers land in ``BENCH_engine.json`` (repo root by default); every
section repeats ``cpu_count`` so each figure can be read in context of
the machine that produced it even when quoted alone.

Run:  python tools/bench_engine.py [--scale 0.4] [--jobs 1 2 4]
                                   [--repeat 3] [--out PATH] [--quick]

``--quick`` is the CI smoke lane: an R004/R006 parity plus
R007/R008/R009 width-flow/C-ABI/env-contract pre-flight, a
native-vs-scan bit-identity sweep, and a small serving loadgen replay
that fails on any tenant parity gap, exiting non-zero on any parity
gap or engine mismatch (the native check green-skips when the backend is
unavailable), and leaving ``BENCH_engine.json`` untouched unless
``--out`` is given explicitly.

``--repeat`` is a floor, not the trial count: every measurement keeps
trialing until a fixed time budget is spent (see ``_TIME_BUDGET_S``),
so sub-millisecond tiers are timed from enough samples to defeat
scheduler jitter while multi-second sections stay at the floor.
"""

import argparse
import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.aliasing.three_cs import measure_aliasing_reference
from repro.aliasing.vectorized import measure_aliasing_sweep
from repro.lint.engine import ProjectContext, lint_paths
from repro.lint.rules import select_rules
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import (
    _native_plan,
    compiler_info,
    native_available,
    native_supports,
    native_threads,
    simulate_native,
    sort_strategy,
)
from repro.sim.parallel import run_cells
from repro.sim.profile import StageTimer
from repro.serving.loadgen import run_loadgen
from repro.sim.scan import scan_supports, simulate_scan
from repro.sim.vectorized import simulate_fast, simulate_vectorized
from repro.sim.vectorized import supports as vector_supports
from repro.traces.synthetic.workloads import ibs_trace

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_OUT = REPO_ROOT / "BENCH_engine.json"

ENGINE_SPECS = [
    "bimodal:4k",
    "gshare:4k:h8",
    "gselect:4k:h8",
    "gskew:3x1k:h8:partial",
    "gskew:3x1k:h8:total",
    "egskew:3x1k:h8:partial",
]

#: Always-update specs with a scan path, timed across all three tiers
#: on identical flags (same trace, scale and repeat as ENGINE_SPECS).
SCAN_SPECS = [
    "bimodal:4k",
    "gshare:4k:h8",
    "gselect:4k:h8",
    "gskew:3x1k:h8:total",
    "egskew:3x1k:h8:total",
    "agree:4k:h8",
]

#: LAZY/PARTIAL specs the C map-code walks cover, timed in the native
#: section beyond SCAN_SPECS so the paper's flagship PARTIAL policy has
#: a recorded native speedup over its previous best tier.
NATIVE_EXTRA_SPECS = [
    "gskew:1x1k:h8:lazy",
    "gskew:3x1k:h8:partial",
    "egskew:3x1k:h8:partial",
]

SWEEP_SIZES = [64, 256, "1k", "4k"]
SWEEP_TEMPLATES = ("gshare:{size}:h8", "gskew:3x{size}:h8:partial")

ALIASING_SIZES = [1 << n for n in range(5, 14)]  # the Figure 1/2 grid
ALIASING_HISTORY_BITS = 4
ALIASING_SCHEMES = ("gshare", "gselect")

#: The issue's throughput target for the native C kernel.  Recorded
#: next to the measurement (``target_met``) so the report stays honest
#: when the hardware says no — docs/performance.md carries the
#: stage-level account either way.
NATIVE_TARGET_BRANCHES_PER_S = 100_000_000


#: Per-measurement trial policy: at least ``--repeat`` trials, then keep
#: trialing until this much cumulative wall-clock is spent (capped at
#: ``_MAX_TRIALS``).  Millisecond-scale runs drown in scheduler jitter
#: at small fixed N — on a busy 1-CPU box the jitter floor is ~0.5ms,
#: which is noise on a 150ms generic run but 50% of a 1ms scan run.
#: The budget applies identically to every tier, so ratios stay fair.
_TIME_BUDGET_S = 0.5
_MAX_TRIALS = 30


def _best_of(repeat, fn, on_trial=None):
    """Best-of-N wall-clock of ``fn`` plus its (last) return value.

    ``on_trial`` (if given) sees each trial's return value — used by
    the scan section to keep per-stage minima across trials.
    """
    best = float("inf")
    value = None
    spent = 0.0
    trials = 0
    while trials < repeat or (
        spent < _TIME_BUDGET_S and trials < _MAX_TRIALS
    ):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        spent += elapsed
        trials += 1
        if on_trial is not None:
            on_trial(value)
    return best, value


def bench_engines(trace, repeat):
    rows = []
    for spec in ENGINE_SPECS:
        generic_s, expected = _best_of(
            repeat, lambda: simulate(make_predictor(spec), trace, label=spec)
        )
        vectorized_s, actual = _best_of(
            repeat,
            lambda: simulate_vectorized(
                make_predictor(spec), trace, label=spec
            ),
        )
        branches = expected.conditional_branches
        rows.append(
            {
                "spec": spec,
                "generic_s": round(generic_s, 4),
                "vectorized_s": round(vectorized_s, 4),
                "generic_branches_per_s": round(branches / generic_s),
                "vectorized_branches_per_s": round(branches / vectorized_s),
                "speedup": round(generic_s / vectorized_s, 2),
                "identical": actual == expected,
            }
        )
        print(
            f"  {spec:28s} generic {generic_s:7.3f}s  "
            f"vectorized {vectorized_s:7.3f}s  "
            f"x{generic_s / vectorized_s:5.1f}  "
            f"{'ok' if rows[-1]['identical'] else 'MISMATCH'}"
        )
    return rows


def bench_scan(trace, repeat):
    """Three-tier comparison plus per-stage scan timings."""
    rows = []
    for spec in SCAN_SPECS:
        generic_s, expected = _best_of(
            repeat, lambda: simulate(make_predictor(spec), trace, label=spec)
        )
        # agree has no index-precompute tier (its counter loop was never
        # vectorized); the scan is its first fast path.
        vectorized_s = loop_result = None
        if vector_supports(make_predictor(spec), trace):
            vectorized_s, loop_result = _best_of(
                repeat,
                lambda: simulate_vectorized(
                    make_predictor(spec), trace, label=spec
                ),
            )
        # One fresh timer per trial; keeping each stage's minimum
        # mirrors the best-of-N total (stage minima need not co-occur,
        # so they may sum below scan_s — they bound each stage's cost).
        stage_best = {}

        def _scan_trial():
            timer = StageTimer()
            result = simulate_scan(
                make_predictor(spec), trace, label=spec, stage_timer=timer
            )
            return timer, result

        def _note_stages(trial):
            for name, seconds in trial[0].totals.items():
                stage_best[name] = min(
                    stage_best.get(name, float("inf")), seconds
                )

        scan_s, (_, scan_result) = _best_of(
            repeat, _scan_trial, on_trial=_note_stages
        )
        branches = expected.conditional_branches
        rows.append(
            {
                "spec": spec,
                "generic_s": round(generic_s, 4),
                "vectorized_s": (
                    None if vectorized_s is None else round(vectorized_s, 4)
                ),
                "scan_s": round(scan_s, 4),
                "scan_branches_per_s": round(branches / scan_s),
                "speedup_vs_generic": round(generic_s / scan_s, 2),
                "speedup_vs_vectorized": (
                    None
                    if vectorized_s is None
                    else round(vectorized_s / scan_s, 2)
                ),
                "stages_s": {
                    name: round(seconds, 6)
                    for name, seconds in sorted(stage_best.items())
                },
                "identical": scan_result == expected
                and (loop_result is None or loop_result == expected),
            }
        )
        loop_text = (
            "vectorized    none  "
            if vectorized_s is None
            else f"vectorized {vectorized_s:7.3f}s  "
        )
        ratio_text = (
            ""
            if vectorized_s is None
            else f"x{vectorized_s / scan_s:4.1f} vs loop  "
        )
        print(
            f"  {spec:24s} generic {generic_s:7.3f}s  "
            f"{loop_text}scan {scan_s:7.3f}s  {ratio_text}"
            f"{'ok' if rows[-1]['identical'] else 'MISMATCH'}"
        )
    return {"cpu_count": os.cpu_count(), "rows": rows}


def bench_native(trace, repeat):
    """Fourth-tier comparison: native C kernel vs its best numpy tier.

    Runs the scan section's spec list (so the two tables line up
    row-for-row) plus ``NATIVE_EXTRA_SPECS`` — the LAZY/PARTIAL specs
    the C map-code walks cover, whose baseline is the numpy scan when
    it has a path and the vectorized loop otherwise.  Specs outside the
    native support matrix (agree's read-mostly bias table, multi-bank
    LAZY) are recorded as skipped rather than silently dropped.
    """
    section = {
        "cpu_count": os.cpu_count(),
        "native_available": native_available(),
        "compiler_info": compiler_info(),
        "target_branches_per_s": NATIVE_TARGET_BRANCHES_PER_S,
        "rows": [],
    }
    if not native_available():
        print("  native backend unavailable; section records the header only")
        return section
    threads = native_threads()
    n = trace.conditional_count
    best_by_strategy = {}
    for spec in SCAN_SPECS + NATIVE_EXTRA_SPECS:
        if not native_supports(make_predictor(spec), trace):
            section["rows"].append(
                {"spec": spec, "skipped": True, "reason": "no native path"}
            )
            print(f"  {spec:24s} skipped (no native path)")
            continue
        probe = make_predictor(spec)
        kind, entry_bits, counters = _native_plan(probe, trace)
        strategy = sort_strategy(entry_bits, len(counters), n, threads)
        if scan_supports(probe, trace):
            baseline_tier, baseline_engine = "scan", simulate_scan
        else:
            baseline_tier, baseline_engine = "vectorized", simulate_vectorized
        baseline_s, expected = _best_of(
            repeat,
            lambda: baseline_engine(make_predictor(spec), trace, label=spec),
        )
        stage_best = {}

        def _native_trial():
            timer = StageTimer()
            result = simulate_native(
                make_predictor(spec), trace, label=spec, stage_timer=timer
            )
            return timer, result

        def _note_stages(trial):
            for name, seconds in trial[0].totals.items():
                stage_best[name] = min(
                    stage_best.get(name, float("inf")), seconds
                )

        native_s, (_, native_result) = _best_of(
            repeat, _native_trial, on_trial=_note_stages
        )
        branches = expected.conditional_branches
        throughput = round(branches / native_s)
        best_by_strategy[strategy] = max(
            best_by_strategy.get(strategy, 0), throughput
        )
        # One untimed dispatch to record which tier simulate_fast picks
        # for this spec on this trace (the provenance satellite).
        fast_tier = simulate_fast(
            make_predictor(spec), trace, label=spec
        ).engine
        section["rows"].append(
            {
                "spec": spec,
                "kind": kind,
                "sort_strategy": strategy,
                "baseline_tier": baseline_tier,
                "baseline_s": round(baseline_s, 4),
                "native_s": round(native_s, 4),
                "native_branches_per_s": throughput,
                "speedup_vs_baseline": round(baseline_s / native_s, 2),
                "fast_tier": fast_tier,
                "stages_s": {
                    name: round(seconds, 6)
                    for name, seconds in sorted(stage_best.items())
                },
                "identical": native_result == expected,
            }
        )
        print(
            f"  {spec:24s} {baseline_tier} {baseline_s * 1e3:7.2f}ms  "
            f"native {native_s * 1e3:7.2f}ms  "
            f"x{baseline_s / native_s:4.2f}  "
            f"{throughput / 1e6:6.1f}M br/s  {strategy}  tier={fast_tier}  "
            f"{'ok' if section['rows'][-1]['identical'] else 'MISMATCH'}"
        )
    best_throughput = max(best_by_strategy.values(), default=0)
    section["best_branches_per_s"] = best_throughput
    section["best_branches_per_s_by_strategy"] = best_by_strategy
    section["target_met"] = best_throughput >= NATIVE_TARGET_BRANCHES_PER_S
    section["target_met_by_strategy"] = {
        strategy: best >= NATIVE_TARGET_BRANCHES_PER_S
        for strategy, best in sorted(best_by_strategy.items())
    }
    if not section["target_met"]:
        print(
            f"  note: best {best_throughput / 1e6:.1f}M br/s is below the "
            f"{NATIVE_TARGET_BRANCHES_PER_S / 1e6:.0f}M target — see "
            "docs/performance.md for the stage profile"
        )
    return section


#: Serving loadgen shape: every IBS workload split into this many
#: interleaved sessions, replayed in wire-sized chunks against the
#: documented default micro-batch.  Scale is capped so the section stays
#: seconds, not minutes, on a 1-CPU box — latency percentiles come from
#: thousands of request samples within one replay, not best-of-N.
SERVING_SPEC = "gshare:4k:h12"
SERVING_SESSIONS_PER_WORKLOAD = 4
SERVING_CHUNK = 64
SERVING_SCALE_CAP = 0.1


def bench_serving(scale):
    """Multi-tenant serving under load: latency, throughput, parity."""
    scale = min(scale, SERVING_SCALE_CAP)
    report = run_loadgen(
        spec=SERVING_SPEC,
        scale=scale,
        sessions_per_workload=SERVING_SESSIONS_PER_WORKLOAD,
        chunk=SERVING_CHUNK,
        verify=True,
    )
    print(
        f"  {report['sessions']} sessions x{scale}: "
        f"{report['events']} events in {report['elapsed_s']:.3f}s  "
        f"{report['branches_per_s'] / 1e3:7.1f}k br/s  "
        f"p50 {report['p50_batch_latency_s'] * 1e6:6.1f}us  "
        f"p99 {report['p99_batch_latency_s'] * 1e6:6.1f}us  "
        f"{'ok' if not report['parity_gaps'] else 'PARITY GAPS'}"
    )
    for gap in report["parity_gaps"]:
        print(f"  PARITY GAP {gap}")
    report["identical"] = not report["parity_gaps"]
    return report


def quick_serving_check():
    """CI smoke: a tiny interleaved replay, every tenant verified."""
    report = run_loadgen(
        spec="gshare:512:h8",
        scale=0.02,
        sessions_per_workload=2,
        chunk=32,
        verify=True,
    )
    report["identical"] = not report["parity_gaps"]
    if report["identical"]:
        print(
            f"  ok: {report['sessions']} interleaved sessions "
            f"bit-identical to serial ({report['events']} events, "
            f"{report['flushes']} flushes)"
        )
    else:
        for gap in report["parity_gaps"]:
            print(f"  PARITY GAP {gap}")
    return report


def quick_native_check(benchmark):
    """CI smoke: native results must be bit-identical to the scan tier.

    Green-skips (``identical: True``) when the backend cannot build —
    the no-compiler lane exercises exactly that path.
    """
    section = {
        "native_available": native_available(),
        "compiler_info": compiler_info(),
        "specs": [],
        "mismatches": [],
        "identical": True,
    }
    if not native_available():
        print("  native backend unavailable; parity check skipped (green)")
        return section
    trace = ibs_trace(benchmark, scale=0.05)
    trace.sim_columns()
    for spec in SCAN_SPECS + NATIVE_EXTRA_SPECS:
        probe = make_predictor(spec)
        if not native_supports(probe, trace) or not scan_supports(
            probe, trace
        ):
            continue
        section["specs"].append(spec)
        scan_result = simulate_scan(make_predictor(spec), trace, label=spec)
        native_result = simulate_native(
            make_predictor(spec), trace, label=spec
        )
        if native_result != scan_result:
            section["mismatches"].append(spec)
    section["identical"] = not section["mismatches"]
    if section["identical"]:
        print(
            f"  ok: native bit-identical to scan on "
            f"{len(section['specs'])} spec(s)"
        )
    else:
        for spec in section["mismatches"]:
            print(f"  MISMATCH {spec}: native disagrees with scan")
    return section


def _sweep_cells():
    return [
        (0, template.format(size=size))
        for template in SWEEP_TEMPLATES
        for size in SWEEP_SIZES
    ]


def bench_sweep(trace, jobs_values, repeat):
    cells = _sweep_cells()

    def generic_sweep():
        return [
            simulate(make_predictor(spec), trace, label=spec)
            for _, spec in cells
        ]

    generic_s, expected = _best_of(repeat, generic_sweep)
    vectorized_s, actual = _best_of(
        repeat, lambda: run_cells([trace], cells, jobs=1)
    )
    speedup = generic_s / vectorized_s
    print(
        f"  {len(cells)}-cell gshare/gskew size sweep: "
        f"generic serial {generic_s:.3f}s, vectorized serial "
        f"{vectorized_s:.3f}s -> x{speedup:.1f} single-process"
    )

    jobs_rows = []
    cpu_count = os.cpu_count()
    for jobs in jobs_values:
        if jobs > cpu_count:
            jobs_rows.append(
                {
                    "jobs": jobs,
                    "skipped": True,
                    "reason": f"exceeds cpu_count={cpu_count}",
                }
            )
            print(
                f"  jobs={jobs}: skipped (only {cpu_count} CPUs — "
                "oversubscribed timings measure scheduler noise)"
            )
            continue
        elapsed, parallel = _best_of(
            repeat, lambda: run_cells([trace], cells, jobs=jobs)
        )
        jobs_rows.append(
            {
                "jobs": jobs,
                "elapsed_s": round(elapsed, 4),
                "speedup_vs_serial": round(vectorized_s / elapsed, 2),
                "identical": parallel == actual,
            }
        )
        print(
            f"  jobs={jobs}: {elapsed:.3f}s "
            f"(x{vectorized_s / elapsed:.2f} vs serial)"
        )

    return {
        "cells": len(cells),
        "cpu_count": cpu_count,
        "specs": [spec for _, spec in cells],
        "generic_serial_s": round(generic_s, 4),
        "vectorized_serial_s": round(vectorized_s, 4),
        "single_process_speedup": round(speedup, 2),
        "identical": actual == expected,
        "jobs": jobs_rows,
    }


def bench_aliasing(trace, repeat):
    def reference_sweep():
        return {
            entries: measure_aliasing_reference(
                trace, entries, ALIASING_HISTORY_BITS,
                schemes=ALIASING_SCHEMES,
            )
            for entries in ALIASING_SIZES
        }

    reference_s, expected = _best_of(repeat, reference_sweep)
    vectorized_s, actual = _best_of(
        repeat,
        lambda: measure_aliasing_sweep(
            trace, ALIASING_SIZES, ALIASING_HISTORY_BITS,
            schemes=ALIASING_SCHEMES,
        ),
    )
    speedup = reference_s / vectorized_s
    identical = actual == expected
    print(
        f"  {len(ALIASING_SIZES)}-size 3Cs sweep "
        f"(h={ALIASING_HISTORY_BITS}, {'/'.join(ALIASING_SCHEMES)}): "
        f"reference {reference_s:.3f}s, one-pass {vectorized_s:.3f}s "
        f"-> x{speedup:.1f}  {'ok' if identical else 'MISMATCH'}"
    )
    return {
        "cpu_count": os.cpu_count(),
        "sizes": ALIASING_SIZES,
        "history_bits": ALIASING_HISTORY_BITS,
        "schemes": list(ALIASING_SCHEMES),
        "reference_s": round(reference_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(speedup, 2),
        "identical": identical,
    }


#: the rules the --quick pre-flight runs over the hot-path modules:
#: R004/R006 (every timed entry point has an equivalence test) plus the
#: dataflow rules R007 (packing expressions fit their dtype or carry a
#: width guard), R008 (from_buffer dtypes match the declared C ABI) and
#: R009 (REPRO_* reads go through the envvars registry).
PREFLIGHT_RULES = ("R004", "R006", "R007", "R008", "R009")


def check_engine_parity() -> list:
    """Hot-path pre-flight: parity, width-flow, C-ABI and env rules.

    Equivalent to ``repro-lint --rule R004 --rule R006 --rule R007
    --rule R008 --rule R009 --list`` over the engine modules; a speedup
    measured on a function no test checks for bit identity is a number
    without a correctness argument, and an engine whose packing can
    silently overflow (R007) or whose buffers disagree with the C
    signature (R008) produces wrong numbers fast, so the gaps are
    called out up front (and recorded in the report) rather than
    discovered in review.
    """
    report = lint_paths(
        [
            REPO_ROOT / "src/repro/sim/vectorized.py",
            REPO_ROOT / "src/repro/sim/scan.py",
            REPO_ROOT / "src/repro/sim/native.py",
            REPO_ROOT / "src/repro/aliasing/vectorized.py",
        ],
        select_rules(list(PREFLIGHT_RULES)),
        project=ProjectContext(REPO_ROOT),
    )
    for violation in report.violations:
        print(f"  WARNING {violation.render()}")
    if not report.violations:
        print(
            "  ok: hot-path modules are clean under "
            + "/".join(PREFLIGHT_RULES)
        )
    return [violation.render() for violation in report.violations]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--benchmark", default="groff")
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to time the sweep at (default: 1 2 4)",
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: parity pre-flight + native and serving parity; "
        "fails on parity gaps or mismatches, writes nothing by default",
    )
    args = parser.parse_args()

    print(f"engine pre-flight (repro-lint {'/'.join(PREFLIGHT_RULES)}):")
    parity_gaps = check_engine_parity()

    if args.quick:
        print("native smoke (native vs scan bit-identity):")
        native_smoke = quick_native_check(args.benchmark)
        print("serving smoke (interleaved loadgen vs serial):")
        serving_smoke = quick_serving_check()
        report = {
            "generated": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "cpu_count": os.cpu_count(),
            "quick": True,
            "engine_parity_gaps": parity_gaps,
            "native": native_smoke,
            "serving": serving_smoke,
        }
        if args.out is not None:
            args.out.write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {args.out}")
        if parity_gaps:
            print("ERROR: engine pre-flight gaps; see warnings above")
        if not native_smoke["identical"]:
            print("ERROR: native kernel disagrees with the scan tier")
        if not serving_smoke["identical"]:
            print("ERROR: interleaved serving disagrees with serial runs")
        ok = (
            not parity_gaps
            and native_smoke["identical"]
            and serving_smoke["identical"]
        )
        return 0 if ok else 1

    out = DEFAULT_OUT if args.out is None else args.out
    trace = ibs_trace(args.benchmark, scale=args.scale)
    trace.sim_columns()  # materialise hot columns outside the timed region
    print(
        f"trace {trace.name} x{args.scale}: "
        f"{trace.conditional_count} conditional branches"
    )

    print("engine (generic vs vectorized):")
    engine_rows = bench_engines(trace, args.repeat)
    print("scan (generic vs vectorized loop vs scan kernel):")
    scan = bench_scan(trace, args.repeat)
    print("sweep (serial vs parallel):")
    sweep = bench_sweep(trace, args.jobs, args.repeat)
    print("aliasing (streaming reference vs one-pass vectorized):")
    aliasing = bench_aliasing(trace, args.repeat)
    print("serving (interleaved multi-tenant loadgen):")
    serving = bench_serving(args.scale)
    print("native (C kernel vs numpy scan):")
    native = bench_native(trace, args.repeat)

    report = {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "benchmark": args.benchmark,
        "scale": args.scale,
        "repeat": args.repeat,
        "conditional_branches": trace.conditional_count,
        "engine_parity_gaps": parity_gaps,
        "engine": {"cpu_count": os.cpu_count(), "rows": engine_rows},
        "scan": scan,
        "sweep": sweep,
        "aliasing": aliasing,
        "serving": serving,
        "native": native,
    }
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    ok = (
        not parity_gaps
        and all(row["identical"] for row in engine_rows)
        and all(row["identical"] for row in scan["rows"])
        and sweep["identical"]
        and aliasing["identical"]
        and serving["identical"]
        and all(
            row.get("identical", True) for row in native["rows"]
        )  # skipped rows and the no-backend header stay green
    )
    if not ok:
        print(
            "ERROR: engines disagree or parity gaps exist; "
            "see the 'identical' fields and R004 warnings"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
