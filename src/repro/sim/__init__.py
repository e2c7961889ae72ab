"""Simulation engine, sweeps and the predictor spec factory."""

from repro.sim.compare import (
    PairedOutcomes,
    bootstrap_difference,
    mcnemar,
    paired_outcomes,
)
from repro.sim.config import format_entries, make_predictor, parse_size
from repro.sim.cost import CostEstimate, PipelineModel, speedup
from repro.sim.engine import miss_stream, simulate
from repro.sim.metrics import SimulationResult
from repro.sim.native import (
    native_available,
    native_supports,
    simulate_native,
)
from repro.sim.parallel import resolve_jobs, simulate_specs
from repro.sim.profile import StageTimer
from repro.sim.vectorized import simulate_fast, simulate_vectorized
from repro.sim.windowed import WindowedResult, windowed_misprediction
from repro.sim.sweep import (
    SweepResult,
    history_sweep,
    size_sweep,
    sweep_specs,
)

__all__ = [
    "PairedOutcomes",
    "bootstrap_difference",
    "mcnemar",
    "paired_outcomes",
    "CostEstimate",
    "PipelineModel",
    "speedup",
    "format_entries",
    "make_predictor",
    "parse_size",
    "miss_stream",
    "simulate",
    "simulate_fast",
    "simulate_native",
    "simulate_vectorized",
    "native_available",
    "native_supports",
    "StageTimer",
    "simulate_specs",
    "resolve_jobs",
    "SimulationResult",
    "SweepResult",
    "history_sweep",
    "size_sweep",
    "sweep_specs",
    "WindowedResult",
    "windowed_misprediction",
]
