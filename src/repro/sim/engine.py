"""The trace-driven simulation engine.

Feeds a trace through a predictor, branch by branch:

- conditional branches are predicted, scored, and trained;
- unconditional transfers are passed to the predictor's history logic
  only (the paper includes them in the global-history bits).

The engine works with any :class:`~repro.predictors.base.BranchPredictor`
and is the reference every faster path is held to.  Its one per-event
loop is :func:`miss_stream`, which records each conditional branch's
misprediction as a byte; :func:`simulate` counts that stream, and the
windowed, per-branch and paired analyses (:mod:`repro.sim.windowed`,
:mod:`repro.sim.profile`, :mod:`repro.sim.compare`) reduce it with
numpy.  It has no fast paths of its own: the fused per-branch paths
live in each predictor's ``predict_and_update`` (one call instead of
``predict`` then ``update``, asserted equal by the predictor contract
tests), and the fast tiers are
:func:`repro.sim.vectorized.simulate_fast`'s, bit-identical to this
loop (asserted by the equivalence suites).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.sim.metrics import SimulationResult
from repro.traces.trace import Trace

__all__ = ["miss_stream", "simulate", "simulate_stream"]


def simulate(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return misprediction stats.

    Args:
        predictor: any predictor implementing the library interface.
        warmup: number of initial *conditional* branches trained but not
            scored (0 reproduces the paper, which scores entire traces).
        label: result label (defaults to the predictor's ``name``).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    missed = miss_stream(predictor, trace)
    return SimulationResult(
        predictor=label or predictor.name,
        trace=trace.name,
        conditional_branches=max(0, len(missed) - warmup),
        mispredictions=int(np.count_nonzero(missed[warmup:])),
        storage_bits=predictor.storage_bits,
        history_bits=getattr(predictor, "history_bits", None),
        engine="generic",
    )


def miss_stream(predictor: BranchPredictor, trace: Trace) -> np.ndarray:
    """Run ``predictor`` over ``trace``; one byte per conditional branch.

    Byte ``i`` is 1 when the ``i``-th conditional branch was
    mispredicted and 0 otherwise (no warmup: every branch is in the
    stream).  Conditional branches are predicted and trained through
    ``predict_and_update``; unconditional transfers only shift history.
    Besides the stream, the run holds one chunk of the trace's codes.
    """
    missed = bytearray(trace.conditional_count)
    step = predictor.predict_and_update
    shift = predictor.notify_unconditional
    index = 0
    for pc, taken, conditional in trace.sim_events():
        if conditional:
            if step(pc, taken) != taken:
                missed[index] = 1
            index += 1
        else:
            shift(pc, taken)
    return np.frombuffer(missed, dtype=np.uint8)


def simulate_stream(
    predictor: BranchPredictor,
    batches: Iterable[Trace],
    label: Optional[str] = None,
) -> SimulationResult:
    """Run a *sequence* of trace batches through one warm predictor.

    The reference semantics of the serving layer: state (counters, bias
    latches, the history register) carries across batch boundaries, so
    the totals — and the predictor's final state — are identical to
    simulating the concatenated trace in one call.  The fast tiers honor
    warm state too (they read the live history register as the stream
    seed), so :func:`repro.sim.vectorized.simulate_fast` may replace
    :func:`simulate` here batch for batch, bit-identically; the
    differential serving suite asserts exactly that.
    """
    conditional_branches = 0
    mispredictions = 0
    name = None
    for batch in batches:
        result = simulate(predictor, batch, label=label)
        conditional_branches += result.conditional_branches
        mispredictions += result.mispredictions
        name = result.trace if name is None else name
    return SimulationResult(
        predictor=label or predictor.name,
        trace=name or "<empty stream>",
        conditional_branches=conditional_branches,
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits,
        history_bits=getattr(predictor, "history_bits", None),
        engine="generic",
    )
