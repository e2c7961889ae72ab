"""Seeded end-to-end benchmark: paper sweeps, model, long traces, serving.

Run from the repository root; nothing needs installing, ``src`` is put on
the path here::

    python3 bench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Without ``--workload`` every workload runs, each in a process of its own.
Each run measures set-up (cold start, repeated), then the workload for
about ``--seconds``, then checks the outputs.  The report lines name
every metric with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
gated end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  An output mismatch exits 1; a run that cannot start
exits 2 and prints no result.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: build outputs and per-run scratch, inside the checkout
BUILD = ROOT / ".bench_build"
EXPECTED = BENCH_DIR / "expected" / "seed0.json"
WORKLOADS = ("sweep", "model", "trace_sim", "serve", "serve_state")
#: cold set-ups per run: at least this many ...
SETUP_REPEATS = 3
#: ... and more while they have taken less than this
SETUP_SECONDS = 4.0
#: End-to-end metrics every workload measures, with their units.
#: BENCHMARK.json gates those that repeat from run to run (see
#: ``compare.py --bounds``); the others are printed ungated.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "branches_per_s": "1/s", "p50_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Seeded end-to-end benchmark of repro.")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0: the IBS clones as shipped)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, help="append each run's full record to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true", help="tiny traces and one set-up: a quick self-check")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="record this run's seed-0 pins in expected/seed0.json instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    Both are peaks over the process's whole life, so a process measures
    one workload only.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(name: str, args, work: Path) -> dict:
    """Cold set-ups in fresh processes: imports, native load, traces, server.

    At least ``SETUP_REPEATS`` of them, and more while they have taken
    less than ``SETUP_SECONDS``: short set-ups are the noisiest.
    """
    from harness import median

    least, budget = (1, 0.0) if args.smoke else (SETUP_REPEATS, SETUP_SECONDS)
    totals, phases = [], []
    while len(totals) < least or sum(totals) < budget:
        cache = work / f"traces-{name}-{len(totals)}"
        env = dict(os.environ, REPRO_TRACE_CACHE=str(cache))
        command = [sys.executable, str(BENCH_DIR / "cold_start.py"), name, str(args.seed), str(int(args.smoke))]
        started = time.perf_counter()
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, check=True)
        elapsed = time.perf_counter() - started
        if name.startswith("serve"):
            from serve_workloads import Server

            server = Server()
            elapsed += server.start_s
            server.stop()
        totals.append(elapsed)
        phases.append(json.loads(done.stdout.splitlines()[-1]))
    return {
        "setup_s": median(totals),
        "generate_s": median([p["generate_s"] for p in phases]),
        "native_s": median([p["native_s"] for p in phases]),
        "cache": phases[-1]["cache"],
        "trace_dir": cache,
    }


def make_workload(name: str, traces, work: Path):
    if name.startswith("serve"):
        from serve_workloads import Serving

        return Serving(traces, name, work)
    import sim_workloads

    return {"sweep": sim_workloads.Sweep, "model": sim_workloads.Model, "trace_sim": sim_workloads.TraceSim}[name](traces)


def check_pins(name: str, outcome, args) -> None:
    if args.seed != 0:
        return
    mode = "smoke" if args.smoke else "full"
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if args.write_expected:
        expected.setdefault(mode, {})[name] = outcome.pins
        EXPECTED.parent.mkdir(parents=True, exist_ok=True)
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return
    want = expected.get(mode, {}).get(name, {})
    for key in sorted(set(want) | set(outcome.pins)):
        if want.get(key) != outcome.pins.get(key):
            outcome.fail(f"pin {mode}/{name}/{key}: got {outcome.pins.get(key)}, expected {want.get(key)}")


def run_workload(name: str, args, work: Path):
    import harness
    from repro.traces import cache_stats, reset_cache_stats

    setup = measure_setup(name, args, work)
    os.environ["REPRO_TRACE_CACHE"] = str(setup["trace_dir"])
    reset_cache_stats()
    traces = harness.load_traces(name, args.seed, args.smoke)
    loaded = cache_stats()
    differ = harness.check_canonical(name, traces, args.smoke) if args.seed == 0 else []
    workload = make_workload(name, traces, work)
    if args.trace:
        base = workload.measure(args.seconds / 2)
        outcome = workload.measure(args.seconds / 2, harness.Tracer())
        outcome.attempted += base.attempted
        outcome.failed += base.failed
        outcome.errors += base.errors
        outcome.layers["tracing.overhead"] = (
            base.metrics["branches_per_s"] / outcome.metrics["branches_per_s"] - 1.0
        )
    else:
        outcome = workload.measure(args.seconds)
    for trace_name in differ:
        outcome.fail(f"seed-0 trace {trace_name} differs from ibs_trace")
    workload.verify(outcome)
    check_pins(name, outcome, args)
    outcome.metrics["setup_s"] = setup["setup_s"]
    outcome.layers["traces.generate_s"] = setup["generate_s"]
    outcome.layers["native.load_s"] = setup["native_s"]
    outcome.layers["traces.cache_hits"] = setup["cache"]["hits"] + loaded["hits"]
    outcome.layers["traces.cache_misses"] = setup["cache"]["misses"] + loaded["misses"]
    return outcome


def measured_metrics(outcome, spec: dict, trace: int) -> dict:
    """Every end-to-end metric, or with ``trace`` every listed per-layer one."""
    if trace:
        return {
            m["name"]: {"value": float(outcome.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def report(name: str, outcome, metrics: dict, listed: dict, args) -> None:
    status = "correct" if not outcome.failed else f"{outcome.failed} FAILED"
    print(f"# {name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{outcome.attempted} operations, {status}")
    for metric, entry in listed.items():
        missing = " (not measured)" if args.trace and metric not in outcome.layers else ""
        print(f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}{missing}")
    for metric, entry in metrics.items():
        if metric not in listed:
            print(f"  (ungated) {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    if args.trace:
        for metric in sorted(set(outcome.layers) - set(listed)):
            print(f"  (unlisted) {metric:<33} {outcome.layers[metric]:>16.6g}")
    for metric, (value, unit) in outcome.detail.items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) and not isinstance(value, bool) else f"{value!s:>16}"
        print(f"  (ungated) {metric:<34} {shown} {unit}")
    for error in outcome.errors[:20]:
        print(f"  error: {error}")


def run_every_workload(argv: list) -> int:
    """Each workload in a child process of its own, then one combined result.

    Peak resident set is a per-process peak, so workloads sharing a
    process would report each other's.
    """
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), *argv, "--workload", name]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print("\n".join(lines))
            return done.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_every_workload(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    BUILD.mkdir(exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    os.environ["TMPDIR"] = str(work)  # the compiler and every child write here
    name = args.workload
    try:
        from repro.sim import native_available

        native_available()  # build the kernel once per checkout, outside any timing
        outcome = run_workload(name, args, work)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    metrics = measured_metrics(outcome, spec, args.trace)
    listed = {m["name"]: metrics[m["name"]] for m in spec["per_layer" if args.trace else "end_to_end"]}
    report(name, outcome, metrics, listed, args)
    if args.out is not None:
        record = {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics,
            "detail": {k: {"value": v, "unit": u} for k, (v, u) in outcome.detail.items()},
            "errors": outcome.errors,
        }
        with args.out.open("a") as stream:
            stream.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": listed,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
