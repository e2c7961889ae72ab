"""Every rule fires on a seeded regression of the shipped code it guards.

Each case copies shipped files into a fixture project, checks that the
rule is silent on the copies, then applies a small regression to one of
them and checks that the rule now fires there.  A rule that no such
case can make fire guards nothing live and is deleted; that is how R007
was retired (see docs/linting.md).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

from repro.lint.rules import rules_by_id

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Regression:
    rule_id: str
    #: the shipped file the regression is applied to
    target: str
    #: ``(shipped text, regressed text)`` pairs, each matching once
    edits: Tuple[Tuple[str, str], ...]
    #: other shipped files the rule reads (registries, kernels, tests)
    context: Tuple[str, ...] = ()


REGRESSIONS = [
    Regression(
        "R001",
        "src/repro/traces/synthetic/behavior.py",
        (("table_rng = random.Random(seed)", "table_rng = random.Random()"),),
    ),
    Regression(
        "R002",
        "src/repro/sim/vectorized.py",
        (
            (
                "history_part = hist & np.uint64((1 << history_bits) - 1)",
                "history_part = hist",
            ),
        ),
    ),
    Regression(
        "R003",
        "src/repro/experiments/figure5.py",
        (("        jobs=jobs,\n", ""),),
        context=("src/repro/experiments/runner.py",),
    ),
    Regression(  # a new exported entry point nothing tests
        "R004",
        "src/repro/sim/native.py",
        (
            (
                '    "simulate_native",\n',
                '    "simulate_native",\n    "simulate_native_batch",\n',
            ),
            (
                "def simulate_native(",
                "def simulate_native_batch(predictor, traces):\n"
                "    return [simulate_native(predictor, t) for t in traces]\n"
                "\n\ndef simulate_native(",
            ),
        ),
        context=("tests/sim/test_native.py",),
    ),
    Regression(  # a hand-rolled fingerprint that misses fields
        "R005",
        "src/repro/traces/cache.py",
        (
            (
                "dataclasses.asdict(config),",
                '{"seed": config.seed, "length": config.length},',
            ),
        ),
        context=("src/repro/traces/synthetic/generator.py",),
    ),
    Regression(  # a new C entry point nothing tests
        "R006",
        "src/repro/sim/native.py",
        (
            (
                '_CDEF = """\n',
                '_CDEF = """\nint64_t repro_walk_reset(int64_t *values, int64_t n);\n',
            ),
        ),
        context=("tests/sim/test_native.py",),
    ),
    Regression(
        "R009",
        "src/repro/sim/native.py",
        (
            (
                "override = envvars.NATIVE_CACHE.text()",
                'override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()',
            ),
        ),
        context=("src/repro/util/envvars.py",),
    ),
]


def _copy(project, rel_path: str) -> Path:
    destination = project.root / rel_path
    destination.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(REPO_ROOT / rel_path, destination)
    return destination


def test_every_rule_has_a_regression():
    assert sorted({case.rule_id for case in REGRESSIONS}) == sorted(
        rules_by_id()
    )


@pytest.mark.parametrize(
    "case", REGRESSIONS, ids=[case.rule_id for case in REGRESSIONS]
)
def test_rule_fires_on_seeded_regression(project, case):
    target = _copy(project, case.target)
    for rel_path in case.context:
        _copy(project, rel_path)
    before = project.lint([case.rule_id])
    assert before.clean, [v.render() for v in before.violations]

    source = target.read_text(encoding="utf-8")
    for shipped, regressed in case.edits:
        assert source.count(shipped) == 1, shipped
        source = source.replace(shipped, regressed)
    target.write_text(source, encoding="utf-8")

    after = project.lint([case.rule_id])
    assert case.target in {v.path for v in after.violations}, (
        f"{case.rule_id} missed the regression"
    )
