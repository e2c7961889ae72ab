"""Fixtures for the fault-injection suites.

Fault plans are process-global (parsed from ``REPRO_FAULTS`` with
per-site arrival counters), so every test here starts and ends with a
clean slate — otherwise one test's consumed arrivals would silently
shift the next test's windows.
"""

from __future__ import annotations

import pytest

from repro.resilience.faults import FAULTS_ENV_VAR, reset_faults
from repro.sim.parallel import reset_recovery_stats


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    reset_faults()
    reset_recovery_stats()
    yield
    reset_faults()
    reset_recovery_stats()
