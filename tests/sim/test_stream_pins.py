"""SHA-256 pins on every per-event analysis over the six clones.

The windowed, per-branch, paired and interference analyses, the generic
interpreter and the per-event trace statistics all walk a trace event by
event.  Each digest below covers one analysis over the six default
clones at scale 0.05 with the specs the experiments run (an ``fa:`` and
an ``unaliased:`` spec included), so a change to how the events are
read or the misses reduced that moves any count, ratio, interval or
ranking fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.aliasing.interference import classify_interference
from repro.aliasing.three_cs import measure_aliasing_reference
from repro.sim.compare import bootstrap_difference, paired_outcomes
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.profile import profile_mispredictions
from repro.sim.windowed import windowed_misprediction
from repro.traces.stats import bias_density
from repro.traces.synthetic.validation import profile_trace
from repro.traces.synthetic.workloads import all_ibs_traces

SCALE = 0.05

SIMULATE_SPECS = (
    "gshare:4k:h4",
    "gskew:3x1k:h4:partial",
    "egskew:3x512:h12:partial",
    "agree:1k:h10",
    "fa:256:h4",
    "unaliased:h12:c1",
)
WINDOWED_SPECS = ("gshare:4k:h4", "gskew:3x1k:h4:partial", "fa:256:h4")
PROFILE_SPECS = ("gshare:1k:h12", "gskew:3x512:h4:total", "unaliased:h4")
#: The robustness experiment's and the statistical example's matchups,
#: plus a fully-associative table against the infinite one.
PAIRS = (
    ("gskew:3x1k:h4:partial", "gshare:4k:h4"),
    ("egskew:3x512:h12:partial", "gskew:3x512:h12:partial"),
    ("gskew:3x512:h4:partial", "gskew:3x512:h4:total"),
    ("fa:256:h4", "unaliased:h4"),
)
SCHEMES = ("gshare", "gselect", "bimodal")

DIGESTS = {
    "simulate": (
        "18085ace19a9ee989f88558dc4c7fc65"
        "4ddc72f1d05745a50b41f1bfa7695f01"
    ),
    "windowed": (
        "acc47d207aa1f0f115202c67e6f3ee58"
        "49d15c7523fffb4ad587bfdeaa4c16d4"
    ),
    "profile": (
        "0d352992ff41101c211713938058cacf"
        "32531cadc695da004d26ac38629cca4e"
    ),
    "paired": (
        "0b13611893bb6d8ed8340272a7eb126f"
        "a30346011c2870f4bf68a33ee906abf1"
    ),
    "bias_density": (
        "85edd11462e3e2f76d73a010279c5b60"
        "d753d69ddf998eea5b58e7323032de69"
    ),
    "profile_trace": (
        "f5d7093380c53fda49869bd303323b82"
        "c3e9f8c30b299b1945af1384873a2d51"
    ),
    "interference": (
        "eda888ce66cdb30bb57942b9ed136b03"
        "8d6f38aa3e11c5171cec03f822485415"
    ),
    "aliasing_reference": (
        "1590a9f64e2cdf1015082e9af9e9f2cb"
        "d5661b4b8be2748bf9af069406eb3d34"
    ),
}


@pytest.fixture(scope="module")
def traces():
    return all_ibs_traces(SCALE)


def _simulate(traces):
    return [
        [
            (
                result.conditional_branches,
                result.mispredictions,
                result.engine,
            )
            for result in (
                simulate(make_predictor(spec), trace, warmup=warmup)
                for warmup in (0, 1500)
            )
        ]
        for trace in traces
        for spec in SIMULATE_SPECS
    ]


def _windowed(traces):
    return [
        (result.misses, result.branches)
        for trace in traces
        for spec in WINDOWED_SPECS
        for window in (256, 2000)
        for result in [
            windowed_misprediction(make_predictor(spec), trace, window)
        ]
    ]


def _profile(traces):
    return [
        (
            result.total_branches,
            result.total_mispredictions,
            [
                (p.pc, p.executions, p.mispredictions, p.taken)
                for p in result.profiles
            ],
        )
        for trace in traces
        for spec in PROFILE_SPECS
        for result in [profile_mispredictions(make_predictor(spec), trace)]
    ]


def _paired(traces):
    rows = []
    for trace in traces:
        for spec_a, spec_b in PAIRS:
            paired = paired_outcomes(
                make_predictor(spec_a), make_predictor(spec_b), trace
            )
            rows.append(
                (
                    paired.both_correct,
                    paired.only_a_correct,
                    paired.only_b_correct,
                    paired.both_wrong,
                    bootstrap_difference(paired, resamples=200),
                    bootstrap_difference(
                        paired, resamples=100, block=64, seed=3
                    ),
                )
            )
    return rows


def _bias_density(traces):
    return [
        bias_density(trace, history_bits)
        for trace in traces
        for history_bits in (0, 4, 12)
    ]


def _profile_trace(traces):
    return [
        profile_trace(trace, history_bits).__dict__
        for trace in traces
        for history_bits in (0, 4)
    ]


def _interference(traces):
    return [
        classify_interference(trace, entries, 4, scheme=scheme).__dict__
        for trace in traces
        for scheme in SCHEMES
        for entries in (256, 1024)
    ]


def _aliasing_reference(traces):
    return [
        {
            scheme: breakdown.__dict__
            for scheme, breakdown in measure_aliasing_reference(
                trace, entries, history_bits, SCHEMES
            ).items()
        }
        for trace in traces
        for entries, history_bits in ((256, 4), (1024, 12))
    ]


ANALYSES = {
    "simulate": _simulate,
    "windowed": _windowed,
    "profile": _profile,
    "paired": _paired,
    "bias_density": _bias_density,
    "profile_trace": _profile_trace,
    "interference": _interference,
    "aliasing_reference": _aliasing_reference,
}


def _digest(value) -> str:
    """SHA-256 of ``value`` as JSON (floats in their exact repr)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("analysis", sorted(ANALYSES))
def test_analysis_output_is_pinned(analysis, traces):
    assert _digest(ANALYSES[analysis](traces)) == DIGESTS[analysis]
