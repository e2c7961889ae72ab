"""Deterministic fault injection and recovery machinery.

The experiment pipeline — trace generation, the three simulation engine
tiers, the threaded sweep fan-out, the experiment runner — must
survive the failures long batch runs actually hit (corrupted cache
entries, engine bugs on unusual geometries, interrupted runs)
*without changing a single result byte*: every
recovery path lands on an engine or code path that is bit-identical to
the fault-free one.

This package provides the two halves of proving that:

- :mod:`repro.resilience.faults` — a deterministic fault plan parsed
  from the ``REPRO_FAULTS`` environment variable (declared in the
  central registry, :mod:`repro.util.envvars`) that fires at named
  sites inside the pipeline (trace-cache read/write corruption, kernel
  exceptions in the fast engines, serving flushes), so every recovery
  path can be exercised on demand and asserted byte-identical;
- :mod:`repro.resilience.checkpoint` — atomic per-experiment result
  snapshots behind ``repro-experiments --checkpoint-dir/--resume`` and
  ``tools/run_full_experiments.py --resume``, so an interrupted batch
  recomputes only what it has not finished.

See ``docs/robustness.md`` for the fault model and the checkpoint
format.
"""

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    InjectedFault,
    fault_active,
    maybe_fail,
    reset_faults,
)

__all__ = [
    "CheckpointStore",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "fault_active",
    "maybe_fail",
    "reset_faults",
]
