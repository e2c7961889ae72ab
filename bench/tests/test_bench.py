"""Self-test of the benchmark; not part of the tier-1 suite.

    python3 -m pytest bench/tests -q

Runs the benchmark at ``--smoke`` size, about 30 s in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_bench(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--smoke", "--seconds", "0.5", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """One all-workload smoke run per mode."""
    return {trace: run_bench("--trace", str(trace)) for trace in (0, 1)}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(smoke, trace, key):
    done = smoke[trace]
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    lines = done.stdout.splitlines()
    for workload in WORKLOADS:
        header = lines.index(next(line for line in lines if line.startswith(f"# {workload}:")))
        block = lines[header + 1:]
        for metric in SPEC[key]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)
            if trace == 0:
                assert entry["value"] > 0, (workload, metric["name"])
            pattern = re.compile(
                rf"^  {re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}( \(not measured\))?$"
            )
            assert any(pattern.match(line) for line in block), (workload, metric["name"])
        if trace == 0:
            listed = {m["name"] for m in SPEC[key]}
            for name, unit in run.END_TO_END.items():
                if name not in listed:
                    pattern = re.compile(rf"^  \(ungated\) {re.escape(name)}\s+\S+ {re.escape(unit)}$")
                    assert any(pattern.match(line) for line in block), (workload, name)


def test_every_per_layer_metric_is_measured_by_some_workload(smoke):
    lines = smoke[1].stdout.splitlines()
    # Which stages the native tier runs depends on trace length, and
    # smoke traces are short.
    names = [m["name"] for m in SPEC["per_layer"] if ".stage." not in m["name"]]
    never = [
        name
        for name in names
        if not any(line.startswith(f"  {name} ") and "(not measured)" not in line for line in lines)
    ]
    assert never == []


def test_names_units_counts_and_bounds():
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == metric["unit"]


def test_each_workload_has_its_own_peak_rss(smoke):
    """An all-workload run must not carry one workload's peak into the next."""
    alone = result_of(run_bench("--workload", "model", "--trace", "0"))
    together = result_of(smoke[0])
    single = alone["metrics"]["peak_rss_mb"]["value"]
    assert together["metrics"]["model.peak_rss_mb"]["value"] == pytest.approx(single, rel=0.15)


def copy_of_the_bench(tmp_path: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_a_tampered_pin_fails_the_run(tmp_path):
    root = copy_of_the_bench(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    pinned = root / "bench" / "expected" / "seed0.json"
    expected = json.loads(pinned.read_text())
    pins = expected["smoke"]["sweep"]
    first = sorted(pins)[0]
    pins[first] = "0" * len(pins[first])
    pinned.write_text(json.dumps(expected))
    done = run_bench("--workload", "sweep", cwd=root)
    assert done.returncode == 1, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_a_nonzero_seed_changes_the_traces(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    seed0 = harness.load_traces("sweep", 0, smoke=True)
    seed1 = harness.load_traces("sweep", 1, smoke=True)
    assert harness.check_canonical("sweep", seed0, smoke=True) == []
    assert harness.check_canonical("sweep", seed1, smoke=True) != []
    for a, b in zip(seed0, seed1):
        assert a.name == b.name and len(a) == len(b)
        assert not np.array_equal(a.pcs, b.pcs) or not np.array_equal(a.takens, b.takens)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    done = run_bench("--workload", "sweep", cwd=copy_of_the_bench(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_readme_baseline_table_is_generated_from_the_baselines():
    sets = [compare.load(p) for p in sorted((BENCH / "results").glob("baseline-*.jsonl"))]
    assert len(sets) == 2 and all(len(s) >= 5 * len(WORKLOADS) for s in sets)
    assert compare.table(sets, SPEC) in (BENCH / "README.md").read_text()


def test_the_bounds_are_those_the_baselines_support():
    """Gated metrics repeat within compare.REPEAT_LIMIT; the rest are ungated."""
    sets = [compare.load(p) for p in sorted((BENCH / "results").glob("*.jsonl"))]
    supported = compare.bounds(sets)
    for metric in SPEC["end_to_end"]:
        if metric["name"] != "setup_s":  # the benchmark contract requires it
            assert supported[metric["name"]] is not None, metric["name"]
            assert metric["bound"] >= supported[metric["name"]], metric["name"]
    listed = {m["name"] for m in SPEC["end_to_end"]}
    assert all(bound is None for name, bound in supported.items() if name not in listed)
