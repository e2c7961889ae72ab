"""Shared fixtures: small deterministic traces for fast tests."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "regenerate tests/golden/golden_rates.json from the current "
            "engines instead of asserting against it"
        ),
    )

from repro.resilience.faults import FAULTS_ENV_VAR, reset_faults
from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.generator import WorkloadConfig, generate_trace
from repro.traces.synthetic.kernel import SchedulerConfig
from repro.traces.trace import Trace

#: Scale used by experiment tests; keeps full-suite runtime manageable.
TEST_SCALE = 0.18


@pytest.fixture(scope="session")
def small_trace() -> Trace:
    """A ~25k-event multi-process trace with OS interleaving."""
    config = WorkloadConfig(
        name="test-small",
        seed=42,
        length=25_000,
        processes=2,
        static_branches_per_process=150,
        procedures_per_process=14,
        mix=BehaviorMix(),
        kernel_static_branches=150,
        scheduler=SchedulerConfig(
            mean_quantum=800, kernel_share=0.15, mean_kernel_burst=100
        ),
    )
    return generate_trace(config)


@pytest.fixture(scope="session")
def tiny_trace() -> Trace:
    """A ~4k-event single-process trace (no kernel) for cheap tests."""
    config = WorkloadConfig(
        name="test-tiny",
        seed=7,
        length=4_000,
        processes=1,
        static_branches_per_process=80,
        procedures_per_process=8,
        kernel_static_branches=0,
        scheduler=SchedulerConfig(kernel_share=0.0),
    )
    return generate_trace(config)


@pytest.fixture()
def fault_env(monkeypatch):
    """Set a ``REPRO_FAULTS`` plan (``""`` clears it) and reset its
    arrival counters."""

    def activate(plan: str) -> None:
        monkeypatch.setenv(FAULTS_ENV_VAR, plan)
        reset_faults()

    yield activate
    reset_faults()
