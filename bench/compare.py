"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Each input is a JSON-lines file of the records ``run.py --out`` appends::

    python3 bench/compare.py OLD.jsonl NEW.jsonl
    python3 bench/compare.py --table A.jsonl [B.jsonl ...]
    python3 bench/compare.py --bounds A.jsonl B.jsonl [C.jsonl ...]

The default form prints, for each workload (one row per metric), both
sets' medians and quartiles.  An end-to-end metric of ``BENCHMARK.json``
regressed when NEW's median is worse than OLD's by more than its bound.
It is unresolved when either set's spread (quartile distance over the
median) exceeds the bound, unless every NEW run reads better than every
OLD run.  Exit status 1 means some metric regressed.

``--table`` prints the markdown baseline table of ``bench/README.md``;
``--bounds`` prints the bound that sets of runs of one commit support for
each metric the runs report, or null for a metric that does not repeat
within ``REPEAT_LIMIT``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A metric whose spread, or median shift between two sets of runs of the
#: same code, passes this on any workload is too noisy to gate: it is
#: reported ungated rather than given a wider bound.
REPEAT_LIMIT = 0.10
#: the largest bound a metric may have
MAX_BOUND = 0.25


def load(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def values(runs: list, workload: str, metric: str) -> list:
    found = []
    for run in runs:
        if run["workload"] != workload or run["trace"]:
            continue
        entry = run["metrics"].get(metric) or run["detail"].get(metric)
        if entry is not None and type(entry["value"]) in (int, float):
            found.append(float(entry["value"]))
    return found


def summary(samples: list) -> dict:
    """Median, quartiles and spread (quartile distance over median)."""
    if len(samples) >= 2:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(samples)}


def workloads(*sets: list) -> list:
    names = []
    for runs in sets:
        for run in runs:
            if run["workload"] not in names:
                names.append(run["workload"])
    return names


def verdict(old: list, new: list, metric: dict) -> str:
    a, b = summary(old), summary(new)
    lower = metric["better"] == "lower"
    worse = (b["median"] - a["median"]) / a["median"]
    if not lower:
        worse = -worse
    if worse > metric["bound"]:
        return "REGRESSION"
    if max(a["spread"], b["spread"]) > metric["bound"]:
        better = max(new) < min(old) if lower else min(new) > max(old)
        return "better" if better else "unresolved"
    return "ok"


def _cell(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def compare(old_runs: list, new_runs: list, spec: dict) -> int:
    gated = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    print(f"{'workload':<12} {'metric':<26} {'old median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads(old_runs, new_runs):
        names = list(gated) + sorted(
            {k for r in old_runs if r["workload"] == workload for k in (*r["metrics"], *r["detail"])}
            - set(gated)
        )
        for name in names:
            old, new = values(old_runs, workload, name), values(new_runs, workload, name)
            if not old or not new:
                continue
            a, b = summary(old), summary(new)
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
            if name in gated:
                bound, result = f"{gated[name]['bound']:.2f}", verdict(old, new, gated[name])
            else:
                bound, result = "-", "(ungated)"
            regressions += result == "REGRESSION"
            print(f"{workload:<12} {name:<26} {_cell(a):>34} {_cell(b):>34} "
                  f"{change:>+8.1%} {bound:>6}  {result}")
    return 1 if regressions else 0


def table(sets: list, spec: dict) -> str:
    """The README baseline table: every end-to-end metric of every set."""
    bound = {m["name"]: f"{m['bound']:.2f}" for m in spec["end_to_end"]}
    lines = [
        "| workload | metric | unit | bound | "
        + " | ".join(f"set {chr(65 + i)} median [q1, q3]" for i in range(len(sets))) + " |",
        "|---|---|---|---|" + "---|" * len(sets),
    ]
    for workload in workloads(*sets):
        first = next(r for r in sets[0] if r["workload"] == workload and not r["trace"])
        for name, entry in first["metrics"].items():
            cells = [_cell(summary(values(runs, workload, name))) for runs in sets]
            lines.append(
                f"| {workload} | {name} | {entry['unit']} | {bound.get(name, 'ungated')} | "
                + " | ".join(cells) + " |"
            )
    runs = ", ".join(str(sum(1 for r in s if not r["trace"])) for s in sets)
    lines.append("")
    lines.append(f"Runs per set: {runs}.")
    return "\n".join(lines)


def bounds(sets: list) -> dict:
    """Per metric: three times the worst spread or median shift seen, capped.

    ``sets`` are sets of runs of one commit.  The worst is taken over
    workloads, over each set's spread and over the shift between every
    two sets' medians.  A metric worse than ``REPEAT_LIMIT`` gets None.
    """
    names = sorted({k for runs in sets for run in runs if not run["trace"] for k in run["metrics"]})
    suggested = {}
    for name in names:
        worst = 0.0
        for workload in workloads(*sets):
            found = [summary(values(runs, workload, name)) for runs in sets]
            medians = [s["median"] for s in found]
            worst = max(worst, *(s["spread"] for s in found), (max(medians) - min(medians)) / min(medians))
        suggested[name] = None if worst > REPEAT_LIMIT else min(MAX_BOUND, math.ceil(300 * worst) / 100)
    return suggested


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true", help="print the README baseline table")
    mode.add_argument("--bounds", action="store_true", help="print bounds the sets support")
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(path) for path in args.files]
    if args.table:
        print(table(sets, spec))
        return 0
    if args.bounds:
        if len(sets) < 2:
            parser.error("give at least two sets of runs")
        print(json.dumps(bounds(sets), indent=2))
        return 0
    if len(sets) != 2:
        parser.error("give exactly two files to compare")
    return compare(*sets, spec)


if __name__ == "__main__":
    sys.exit(main())
