"""Golden regression suite: pinned misprediction counts per workload.

The differential suites prove the engines agree with *each other*; this
suite pins them to *checked-in numbers*, so any drift in the trace
substrate (generator, scheduler, behaviour models), the predictors or
any engine tier shows up as a diff against ``golden_rates.json`` —
including drift that moves all tiers in lockstep, which no equivalence
test can see.

Each of the six IBS-named workloads runs at a small scale through every
engine tier (generic interpreter, vectorized loop, transition scan,
native C kernel) for a spec family every tier can
express.  Counts are exact integers — the engines are deterministic and
bit-identical, so the comparison is equality, not a tolerance.  The
native tier is optional by design: its rows skip with an explicit
reason when the backend cannot build (no C compiler or cffi,
``REPRO_NATIVE=0``) or the spec has no native path, so the suite stays
green on compiler-less machines while still pinning the C kernel
wherever it exists.

After an *intentional* change to traces or predictors, refresh with::

    pytest tests/golden --update-golden

and review the JSON diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import native_available, native_supports, simulate_native
from repro.sim.scan import simulate_scan
from repro.sim.vectorized import simulate_vectorized
from repro.traces.synthetic.workloads import IBS_BENCHMARKS, ibs_trace

GOLDEN_PATH = Path(__file__).parent / "golden_rates.json"

#: Small enough to keep 6 workloads x 5 specs x 4 tiers cheap, large
#: enough that every workload has thousands of conditional branches.
GOLDEN_SCALE = 0.05

#: One spec per engine-relevant family, all expressible by every tier
#: (always-update, default skew family, the PARTIAL vote-wrongness
#: fixpoint, the single-bank LAZY train-on-miss walk, in-range
#: geometry).
GOLDEN_SPECS = [
    "bimodal:512",
    "gshare:512:h8",
    "gskew:3x256:h6:total",
    "gskew:3x256:h6:partial",
    "gskew:1x256:h6:lazy",
]

#: The serving tier's pinned replay: three tenants (one per workload)
#: interleaved through one server, far-from-aligned chunk/batch sizes so
#: flush boundaries fall mid-stream everywhere.
SERVING_WORKLOADS = ("groff", "gs", "mpeg_play")
SERVING_SPEC = "gshare:512:h8"
SERVING_CHUNK = 97
SERVING_BATCH = 128


def _measure_serving() -> dict:
    """Per-tenant counts from the 3-tenant interleaved replay."""
    from repro.serving.server import PredictionService

    service = PredictionService(shards=2, batch_size=SERVING_BATCH)
    sessions = {
        workload: ibs_trace(workload, GOLDEN_SCALE)
        for workload in SERVING_WORKLOADS
    }
    for workload in sessions:
        service.handle(
            {"op": "open", "session": workload, "spec": SERVING_SPEC}
        )
    cursors = {workload: 0 for workload in sessions}
    while any(cursors[w] < len(t) for w, t in sessions.items()):
        for workload, trace in sessions.items():
            lo = cursors[workload]
            if lo >= len(trace):
                continue
            hi = min(lo + SERVING_CHUNK, len(trace))
            events = [
                [int(trace.pcs[i]), int(trace.takens[i]),
                 int(trace.conditionals[i])]
                for i in range(lo, hi)
            ]
            cursors[workload] = hi
            response = service.handle(
                {"op": "events", "session": workload, "events": events}
            )
            assert response["ok"], response
    out = {}
    for workload in sessions:
        stats = service.handle({"op": "close", "session": workload})
        assert stats["ok"], stats
        out[workload] = {
            "branches": stats["conditional_branches"],
            "misses": stats["mispredictions"],
        }
    return out


def _simulate_native_checked(predictor, trace, label):
    """The native C tier, skipping where it cannot run.

    The backend is optional (compiled on demand); a machine without a
    C toolchain must stay green.  Every golden spec — including the
    PARTIAL fixpoint and single-bank LAZY — has a native path at
    golden scale, so on a compiler-equipped machine only backend
    unavailability skips.
    """
    if not native_available():
        pytest.skip(
            "native backend unavailable (no C compiler, no cffi, or "
            "REPRO_NATIVE=0); the scan tier pins these numbers instead"
        )
    if not native_supports(predictor, trace):
        pytest.skip(f"{label}: no native path at this geometry")
    return simulate_native(predictor, trace, label=label)


ENGINES = {
    "generic": simulate,
    "vectorized": simulate_vectorized,
    "scan": simulate_scan,
    "native": _simulate_native_checked,
}


def _measure(workload: str, spec: str, engine) -> dict:
    trace = ibs_trace(workload, GOLDEN_SCALE)
    result = engine(make_predictor(spec), trace, label=spec)
    return {
        "branches": result.conditional_branches,
        "misses": result.mispredictions,
    }


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} missing; generate it with "
            "`pytest tests/golden --update-golden`"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_update_golden(request):
    """With ``--update-golden``: regenerate the file (generic tier)."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("refresh path; pass --update-golden to run")
    golden = {
        "scale": GOLDEN_SCALE,
        "workloads": {
            workload: {
                spec: _measure(workload, spec, simulate)
                for spec in GOLDEN_SPECS
            }
            for workload in IBS_BENCHMARKS
        },
        "serving": {
            "spec": SERVING_SPEC,
            "chunk": SERVING_CHUNK,
            "batch": SERVING_BATCH,
            "tenants": _measure_serving(),
        },
    }
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def test_golden_covers_exactly_the_matrix():
    golden = _load_golden()
    assert sorted(golden) == ["scale", "serving", "workloads"]
    assert golden["scale"] == GOLDEN_SCALE
    assert sorted(golden["workloads"]) == sorted(IBS_BENCHMARKS)
    for per_spec in golden["workloads"].values():
        assert sorted(per_spec) == sorted(GOLDEN_SPECS)
    serving = golden["serving"]
    assert serving["spec"] == SERVING_SPEC
    assert serving["chunk"] == SERVING_CHUNK
    assert serving["batch"] == SERVING_BATCH
    assert sorted(serving["tenants"]) == sorted(SERVING_WORKLOADS)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("spec", GOLDEN_SPECS)
@pytest.mark.parametrize("workload", IBS_BENCHMARKS)
def test_rates_match_golden(workload, spec, engine_name):
    golden = _load_golden()
    expected = golden["workloads"][workload][spec]
    actual = _measure(workload, spec, ENGINES[engine_name])
    assert actual == expected, (
        f"{workload}/{spec} on the {engine_name} engine drifted from "
        f"golden; if intentional, refresh with --update-golden"
    )


def test_serving_matches_golden():
    """The serving tier: pinned per-tenant counts for the 3-tenant replay.

    Interleaved multi-tenant serving must not only agree with serial
    runs (the differential suites prove that); its absolute per-tenant
    numbers are pinned here so drift anywhere under the serving stack —
    sharding, batching, the state carry — shows up as a golden diff.
    """
    golden = _load_golden()
    expected = golden["serving"]["tenants"]
    actual = _measure_serving()
    assert actual == expected, (
        "per-tenant serving counts drifted from golden; if intentional, "
        "refresh with --update-golden"
    )
