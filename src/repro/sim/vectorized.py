"""Vectorized simulation engine: precomputed index streams.

For the trace-determined predictors the big sweeps run most — bimodal,
gshare, gselect, gskew and enhanced gskew — *every* table index is a pure
function of the trace alone: training always uses the true branch outcome,
so the global-history register contents at each event are fixed by the
event stream before simulation starts.  This engine exploits that:

1. the per-event global-history values are computed for the whole trace
   with numpy bit-ops over :class:`~repro.traces.trace.Trace`'s columns
   (memoised per trace via :meth:`~repro.traces.trace.Trace.derived_column`
   so sweeps pay for each history length once);
2. each bank's full index stream is then evaluated in closed form (the
   gshare/gselect index functions and the paper's skewing family vectorize
   directly — see :mod:`repro.core.skew`);
3. the remaining sequential part — saturating-counter reads and updates,
   whose values feed back into later predictions — runs as a tight Python
   loop with no per-branch hashing, dispatch, or history bookkeeping.

Step 3 is not actually irreducible: for always-update configurations each
table entry is an independent FSM driven only by the outcomes that hit it,
and :mod:`repro.sim.scan` replaces the loop with a grouped transition-
composition scan (see ``docs/performance.md``).  This module keeps the
loop because coupled-update policies (PARTIAL/LAZY on multi-bank skewed
predictors) genuinely need it: there each bank's training decision reads
the *overall* majority vote, which depends on the other banks' counters
at that instant, so no single bank's state is a function of its own event
substream alone.

The result is behaviourally identical to :func:`repro.sim.engine.simulate`
(asserted by the equivalence suite in ``tests/sim/test_vectorized.py``,
like the fused fast paths in the predictors themselves), including the
predictor's final counter and history state.  :func:`simulate_fast`
dispatches each spec to the fastest expressible engine — scan, then this
loop engine, then the generic interpreter for anything neither can
express (tagged, per-address, hybrid and custom-skew schemes).
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.egskew import EnhancedSkewedPredictor
from repro.core.gskew import SkewedPredictor
from repro.core.update import UpdatePolicy
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GselectPredictor
from repro.predictors.gshare import GsharePredictor
from repro.resilience.faults import maybe_fail
from repro.sim.engine import simulate
from repro.sim.metrics import SimulationResult
from repro.sim.profile import NULL_STAGE_TIMER, StageTimer
from repro.sim.state import PredictorState
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "supports",
    "simulate_vectorized",
    "simulate_fast",
    "history_stream",
    "forced_engine",
]

#: history lengths must fit a uint64 shift register
_MAX_HISTORY_BITS = 63

#: Forces one engine for benchmarking and CI lane isolation.  See
#: :func:`forced_engine` for the semantics; declared in the central
#: registry (:mod:`repro.util.envvars`), re-exported here by name.
ENGINE_ENV_VAR = envvars.ENGINE.name

_ENGINE_NAMES = frozenset({"generic", "vectorized", "scan", "native"})


def forced_engine() -> Optional[str]:
    """The engine name forced via ``REPRO_ENGINE``, or None.

    ``simulate_fast`` routes ``generic``/``vectorized``/``scan``/
    ``native`` directly to that engine — a spec the engine cannot
    express raises its usual ``ValueError`` instead of silently falling
    back, which is the point: a forced benchmark or CI lane must fail
    loudly rather than measure the wrong tier.  Unknown values raise
    ``ValueError`` immediately.
    """
    value = envvars.ENGINE.text()
    if not value:
        return None
    if value not in _ENGINE_NAMES:
        raise ValueError(
            f"{ENGINE_ENV_VAR}={value!r} is not a known engine; "
            f"expected one of {sorted(_ENGINE_NAMES)}"
        )
    return value


# -- index-stream precomputation (numpy, whole-trace) ----------------------


def _cond_mask(trace: Trace) -> np.ndarray:
    """Boolean conditional-branch mask, memoised on the trace."""
    return trace.derived_column(
        "cond_mask", lambda: trace.conditionals.astype(bool)
    )


def _cond_words(trace: Trace) -> np.ndarray:
    """Word-aligned addresses (``pc >> 2``) of the conditional branches."""
    return trace.derived_column(
        "cond_words",
        lambda: (trace.pcs >> np.uint64(2))[_cond_mask(trace)],
    )


def _cond_takens(trace: Trace) -> np.ndarray:
    """Outcomes of the conditional branches as a bool array."""
    return trace.derived_column(
        "cond_takens", lambda: trace.takens[_cond_mask(trace)].astype(bool)
    )


def _cond_history(trace: Trace, bits: int, seed: int = 0) -> np.ndarray:
    """Global-history stream at the conditional branches, memoised per
    ``bits`` (sweeps revisit the same history lengths constantly).

    ``seed`` is the register's contents at the first event — nonzero when
    a trace resumes mid-stream (serving batches, snapshot/restore).  The
    cold-start key keeps its historical shape so cached sweep columns
    stay valid; warm-start streams memoise under their own key.
    """
    key = ("cond_history", bits) if not seed else ("cond_history", bits, seed)
    return trace.derived_column(
        key,
        lambda: history_stream(trace.takens, bits, seed)[_cond_mask(trace)],
    )


def history_stream(
    takens: np.ndarray, bits: int, seed: int = 0
) -> np.ndarray:
    """Global-history register value *before* each event, as uint64.

    ``out[i]`` holds the low ``bits`` outcomes of events ``i-1, i-2, ...``
    with the most recent in the least-significant bit — exactly the
    register a :class:`~repro.core.history.GlobalHistory` predictor sees
    when event ``i`` is predicted (the paper shifts unconditional
    transfers in too, so every event contributes a bit).  ``seed`` fills
    the bit positions older than the trace itself: before event ``i`` the
    register holds ``((seed << i) | outcomes[:i]) & mask``, so a resumed
    stream sees exactly the register it left off with.
    """
    if not 0 <= bits <= _MAX_HISTORY_BITS:
        raise ValueError(f"history bits must be in [0, {_MAX_HISTORY_BITS}]")
    n = len(takens)
    out = np.zeros(n, dtype=np.uint64)
    if bits == 0 or n == 0:
        return out
    t = takens.astype(np.uint64)
    for age in range(1, min(bits, n) + 1):
        out[age:] |= t[: n - age] << np.uint64(age - 1)
    if seed:
        mask = (1 << bits) - 1
        if not 0 <= seed <= mask:
            raise ValueError(f"history seed must fit {bits} bits")
        # Python-int shifts: (seed << i) can exceed 64 bits near the top
        # of the register, so the fold stays exact outside numpy.
        for i in range(min(bits, n)):
            out[i] |= np.uint64((seed << i) & mask)
    return out


def _shuffle(y: np.ndarray, n: int) -> np.ndarray:
    """Vectorized :func:`repro.core.skew.shuffle_h` (inputs already n-bit).

    Dtype-preserving: scalar operands match ``y``'s width so the uint32
    fast path of :func:`_skew_streams` stays uint32 throughout.
    """
    if n == 1:
        return y
    if y.dtype == np.uint32:
        one, top = np.uint32(1), np.uint32(n - 1)
    else:
        one, top = np.uint64(1), np.uint64(n - 1)
    msb = ((y >> top) ^ y) & one
    return (y >> one) | (msb << top)


def _shuffle_inverse(z: np.ndarray, n: int) -> np.ndarray:
    """Vectorized :func:`repro.core.skew.shuffle_h_inverse` (dtype-preserving)."""
    if n == 1:
        return z
    if z.dtype == np.uint32:
        one, top, sub = np.uint32(1), np.uint32(n - 1), np.uint32(n - 2)
        mask = np.uint32((1 << n) - 1)
    else:
        one, top, sub = np.uint64(1), np.uint64(n - 1), np.uint64(n - 2)
        mask = np.uint64((1 << n) - 1)
    low = ((z >> top) ^ (z >> sub)) & one
    return ((z << one) & mask) | low


def _skew_halves(
    trace: Trace, n: int, history_bits: int, seed: int = 0
) -> "tuple[np.ndarray, np.ndarray]":
    """The two n-bit halves ``v1, v2`` of the skewing information vector.

    The halves are a pure function of the trace and the (n, history)
    geometry — ``vector = (pc >> 2) << h | hist``, split into its low
    and next ``n`` bits — so they memoize per trace like the history
    stream does.  Only the low ``2n`` bits of the vector matter to the
    family, hence the halves narrow to uint32 for any allocatable bank
    (``n <= 32``), roughly halving the arithmetic of the ~25 array ops
    the family expands to.
    """

    def compute() -> np.ndarray:
        words = _cond_words(trace)
        hist = _cond_history(trace, history_bits, seed)
        mask = np.uint64((1 << n) - 1)
        vector = (words << np.uint64(history_bits)) | hist
        v1 = vector & mask
        v2 = (vector >> np.uint64(n)) & mask
        if n <= 32:
            return np.stack([v1, v2]).astype(np.uint32)
        return np.stack([v1, v2])  # pragma: no cover — bank > 2**32 entries

    key = (
        ("skew_halves", n, history_bits)
        if not seed
        else ("skew_halves", n, history_bits, seed)
    )
    pair = trace.derived_column(key, compute)
    return pair[0], pair[1]


def _skew_streams(
    trace: Trace, n: int, history_bits: int, banks: int, seed: int = 0
) -> List[np.ndarray]:
    """Index streams for the paper's skewing family (1, 3 or 5 banks).

    Built from the information-vector halves of :func:`_skew_halves`;
    the single-bank family is plain address/history truncation, i.e.
    ``v1`` itself.  Like the halves, the whole family is a pure function
    of the trace and the ``(n, history, banks)`` geometry, so the ~25
    array ops it expands to memoize per trace as one stacked column
    (rows are returned as read-only-by-convention views).
    """
    if banks == 1:
        return [_skew_halves(trace, n, history_bits, seed)[0]]

    def compute() -> np.ndarray:
        v1, v2 = _skew_halves(trace, n, history_bits, seed)
        h1 = _shuffle(v1, n)
        g2 = _shuffle_inverse(v2, n)
        f0 = h1 ^ g2 ^ v2
        f1 = h1 ^ g2 ^ v1
        g1 = _shuffle_inverse(v1, n)
        h2 = _shuffle(v2, n)
        f2 = g1 ^ h2 ^ v2
        if banks == 3:
            return np.stack([f0, f1, f2])
        f3 = g1 ^ h2 ^ v1
        f4 = _shuffle(h1, n) ^ _shuffle_inverse(g2, n) ^ v2
        return np.stack([f0, f1, f2, f3, f4])

    key = (
        ("skew_family", n, history_bits, banks)
        if not seed
        else ("skew_family", n, history_bits, banks, seed)
    )
    family = trace.derived_column(key, compute)
    return list(family)


def _gshare_stream(
    words: np.ndarray, hist: np.ndarray, index_bits: int, history_bits: int
) -> np.ndarray:
    mask = np.uint64((1 << index_bits) - 1)
    pc = words & mask
    if history_bits == 0 or index_bits == 0:
        # A 1-entry table has a single index; bailing here also keeps
        # the fold loop below well-defined (its shift is index_bits) —
        # same guard as the scalar gshare_index.
        return pc
    if history_bits <= index_bits:
        return pc ^ ((hist << np.uint64(index_bits - history_bits)) & mask)
    folded = np.zeros_like(hist)
    h = hist.copy()
    while h.any():
        folded ^= h & mask
        h >>= np.uint64(index_bits)
    return pc ^ folded


def _gselect_stream(
    words: np.ndarray, hist: np.ndarray, index_bits: int, history_bits: int
) -> np.ndarray:
    mask = np.uint64((1 << index_bits) - 1)
    if history_bits == 0:
        return words & mask
    if history_bits >= index_bits:
        return hist & mask
    address_part = words & np.uint64((1 << (index_bits - history_bits)) - 1)
    history_part = hist & np.uint64((1 << history_bits) - 1)
    return (address_part << np.uint64(history_bits)) | history_part


def _egskew_bank0_stream(
    words: np.ndarray, hist: np.ndarray, predictor: EnhancedSkewedPredictor
) -> np.ndarray:
    """Bank 0 of e-gskew: address truncation, or the ablation's short hash."""
    n = predictor.bank_index_bits
    mask = np.uint64((1 << n) - 1)
    b0 = predictor.bank0_history_bits
    if b0 == 0:
        return words & mask
    short = hist & np.uint64((1 << b0) - 1)
    address_part = words & mask
    shift = n - b0
    if shift >= 0:
        return address_part ^ (short << np.uint64(shift))
    return (address_part ^ short) & mask


def _index_streams(
    predictor: BranchPredictor, trace: Trace
) -> Optional[List[np.ndarray]]:
    """Per-bank index streams over the *conditional* branches, or None.

    Returns None when the predictor's index functions aren't expressible
    in closed form over the trace (the fallback condition for
    :func:`simulate_fast`).  The predictor's *current* history-register
    contents seed the history stream, so a warm predictor (serving
    batches, restored snapshots) indexes exactly as the generic engine
    would — cold starts keep the seedless memoised columns.
    """
    kind = type(predictor)
    words = _cond_words(trace)

    if kind is BimodalPredictor:
        mask = np.uint64((1 << predictor.index_bits) - 1)
        return [words & mask]

    history_bits = getattr(predictor, "history_bits", None)
    if history_bits is None or history_bits > _MAX_HISTORY_BITS:
        return None
    seed = getattr(predictor, "history", None)
    seed = 0 if seed is None else seed.value
    hist = _cond_history(trace, history_bits, seed)

    if kind is GsharePredictor:
        return [_gshare_stream(words, hist, predictor.index_bits, history_bits)]
    if kind is GselectPredictor:
        return [_gselect_stream(words, hist, predictor.index_bits, history_bits)]
    if kind is EnhancedSkewedPredictor:
        n = predictor.bank_index_bits
        _, f1, f2 = _skew_streams(trace, n, history_bits, 3, seed)
        return [_egskew_bank0_stream(words, hist, predictor), f1, f2]
    if kind is SkewedPredictor:
        banks = len(predictor.banks)
        if banks not in (1, 3, 5):
            return None
        if not getattr(predictor, "default_skew_family", False):
            return None
        n = predictor.bank_index_bits
        return _skew_streams(trace, n, history_bits, banks, seed)
    return None


def supports(predictor: BranchPredictor, trace: Trace) -> bool:
    """True if ``predictor`` has a vectorized fast path over ``trace``."""
    kind = type(predictor)
    if kind is BimodalPredictor:
        return True
    if kind in (GsharePredictor, GselectPredictor, EnhancedSkewedPredictor):
        return predictor.history_bits <= _MAX_HISTORY_BITS
    if kind is SkewedPredictor:
        return (
            getattr(predictor, "default_skew_family", False)
            and len(predictor.banks) in (1, 3, 5)
            and predictor.history_bits <= _MAX_HISTORY_BITS
        )
    return False


# -- the sequential counter loops ------------------------------------------


def _loop_single(
    values: List[int], threshold: int, vmax: int,
    indices: Sequence[int], outcomes: Sequence[bool],
) -> int:
    """One tag-less table: read, score, saturating update."""
    miss = 0
    for idx, t in zip(indices, outcomes):
        v = values[idx]
        if (v >= threshold) != t:
            miss += 1
        if t:
            if v < vmax:
                values[idx] = v + 1
        elif v > 0:
            values[idx] = v - 1
    return miss


def _loop3_partial(
    v0: List[int], v1: List[int], v2: List[int],
    threshold: int, vmax: int,
    i0: Sequence[int], i1: Sequence[int], i2: Sequence[int],
    outcomes: Sequence[bool],
) -> int:
    """3-bank majority vote, partial update (the paper's headline config)."""
    miss = 0
    for a, b, c, t in zip(i0, i1, i2, outcomes):
        x = v0[a]
        y = v1[b]
        z = v2[c]
        p0 = x >= threshold
        p1 = y >= threshold
        p2 = z >= threshold
        if ((p0 and p1) or (p2 and (p0 or p1))) != t:
            # Overall wrong: retrain every bank.
            miss += 1
            if t:
                if x < vmax:
                    v0[a] = x + 1
                if y < vmax:
                    v1[b] = y + 1
                if z < vmax:
                    v2[c] = z + 1
            else:
                if x > 0:
                    v0[a] = x - 1
                if y > 0:
                    v1[b] = y - 1
                if z > 0:
                    v2[c] = z - 1
        elif t:
            # Overall correct: strengthen only the agreeing banks.
            if p0 and x < vmax:
                v0[a] = x + 1
            if p1 and y < vmax:
                v1[b] = y + 1
            if p2 and z < vmax:
                v2[c] = z + 1
        else:
            if not p0 and x > 0:
                v0[a] = x - 1
            if not p1 and y > 0:
                v1[b] = y - 1
            if not p2 and z > 0:
                v2[c] = z - 1
    return miss


def _loop3_total(
    v0: List[int], v1: List[int], v2: List[int],
    threshold: int, vmax: int,
    i0: Sequence[int], i1: Sequence[int], i2: Sequence[int],
    outcomes: Sequence[bool],
) -> int:
    """3-bank majority vote, total update: every bank trains every branch."""
    miss = 0
    for a, b, c, t in zip(i0, i1, i2, outcomes):
        x = v0[a]
        y = v1[b]
        z = v2[c]
        p0 = x >= threshold
        p1 = y >= threshold
        p2 = z >= threshold
        if ((p0 and p1) or (p2 and (p0 or p1))) != t:
            miss += 1
        if t:
            if x < vmax:
                v0[a] = x + 1
            if y < vmax:
                v1[b] = y + 1
            if z < vmax:
                v2[c] = z + 1
        else:
            if x > 0:
                v0[a] = x - 1
            if y > 0:
                v1[b] = y - 1
            if z > 0:
                v2[c] = z - 1
    return miss


def _loop3_lazy(
    v0: List[int], v1: List[int], v2: List[int],
    threshold: int, vmax: int,
    i0: Sequence[int], i1: Sequence[int], i2: Sequence[int],
    outcomes: Sequence[bool],
) -> int:
    """3-bank majority vote, lazy update: train only on overall misses."""
    miss = 0
    for a, b, c, t in zip(i0, i1, i2, outcomes):
        x = v0[a]
        y = v1[b]
        z = v2[c]
        p0 = x >= threshold
        p1 = y >= threshold
        p2 = z >= threshold
        if ((p0 and p1) or (p2 and (p0 or p1))) != t:
            miss += 1
            if t:
                if x < vmax:
                    v0[a] = x + 1
                if y < vmax:
                    v1[b] = y + 1
                if z < vmax:
                    v2[c] = z + 1
            else:
                if x > 0:
                    v0[a] = x - 1
                if y > 0:
                    v1[b] = y - 1
                if z > 0:
                    v2[c] = z - 1
    return miss


_LOOP3 = {
    UpdatePolicy.PARTIAL: _loop3_partial,
    UpdatePolicy.TOTAL: _loop3_total,
    UpdatePolicy.LAZY: _loop3_lazy,
}


def _loop_voted(
    values: List[List[int]], threshold: int, vmax: int,
    index_lists: List[Sequence[int]], outcomes: Sequence[bool],
    policy: UpdatePolicy,
) -> int:
    """Generic odd-bank-count loop (the 1- and 5-bank configurations)."""
    banks = len(values)
    need = banks // 2 + 1
    miss = 0
    preds = [False] * banks
    for row in zip(outcomes, *index_lists):
        t = row[0]
        votes = 0
        for b in range(banks):
            p = values[b][row[1 + b]] >= threshold
            preds[b] = p
            if p:
                votes += 1
        wrong = (votes >= need) != t
        if wrong:
            miss += 1
        if policy is UpdatePolicy.TOTAL:
            train = range(banks)
        elif policy is UpdatePolicy.PARTIAL:
            train = (
                range(banks)
                if wrong
                else [b for b in range(banks) if preds[b] == t]
            )
        else:  # LAZY
            train = range(banks) if wrong else ()
        for b in train:
            bank = values[b]
            idx = row[1 + b]
            v = bank[idx]
            if t:
                if v < vmax:
                    bank[idx] = v + 1
            elif v > 0:
                bank[idx] = v - 1
    return miss


# -- the engine ------------------------------------------------------------


def _final_history(takens: np.ndarray, bits: int, seed: int = 0) -> int:
    """Register contents after the whole trace has shifted through.

    ``seed`` is the register's value *before* the trace; it only matters
    when the trace is shorter than the register (mid-stream batches).
    """
    value = seed
    for t in takens[-bits:] if bits else ():
        value = (value << 1) | int(t)
    return value & ((1 << bits) - 1 if bits else 0)


def _run_plan(
    predictor: BranchPredictor,
    streams: List[np.ndarray],
    outcomes: List[bool],
    warmup: int,
) -> Tuple[int, int]:
    """Drive the counter loop(s); returns (scored branches, mispredictions)."""
    index_lists = [stream.tolist() for stream in streams]
    scored = max(0, len(outcomes) - warmup)

    if len(streams) == 1 and hasattr(predictor, "bank"):
        counters = predictor.bank.counters
        run = lambda lo, hi: _loop_single(  # noqa: E731
            counters.values, counters.threshold, counters.max_value,
            index_lists[0][lo:hi], outcomes[lo:hi],
        )
    elif len(streams) == 3:
        banks = predictor.banks
        loop3 = _LOOP3[predictor.update_policy]
        c0, c1, c2 = (bank.counters for bank in banks)
        run = lambda lo, hi: loop3(  # noqa: E731
            c0.values, c1.values, c2.values, c0.threshold, c0.max_value,
            index_lists[0][lo:hi], index_lists[1][lo:hi],
            index_lists[2][lo:hi], outcomes[lo:hi],
        )
    else:
        counters = [bank.counters for bank in predictor.banks]
        run = lambda lo, hi: _loop_voted(  # noqa: E731
            [c.values for c in counters],
            counters[0].threshold, counters[0].max_value,
            [lst[lo:hi] for lst in index_lists], outcomes[lo:hi],
            predictor.update_policy,
        )

    if warmup:
        run(0, warmup)  # trains identically; misses aren't scored
    return scored, run(warmup, len(outcomes))


def simulate_vectorized(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """Vectorized-index counterpart of :func:`repro.sim.engine.simulate`.

    Identical arguments and result; also leaves the predictor's counters
    and history register in the same final state the generic engine would.
    ``stage_timer`` (optional) accumulates per-stage wall-clock under
    ``"precompute"`` (history + index streams) and ``"counter_loop"``.

    Raises:
        ValueError: if the predictor has no vectorized path (callers
            wanting automatic fallback use :func:`simulate_fast`).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    timer = NULL_STAGE_TIMER if stage_timer is None else stage_timer
    history = getattr(predictor, "history", None)
    seed = history.value if history is not None else 0
    with timer.stage("precompute"):
        streams = _index_streams(predictor, trace)
        if streams is None:
            raise ValueError(
                f"no vectorized path for {type(predictor).__name__}; "
                "use simulate_fast() or the generic engine"
            )
        outcomes = _cond_takens(trace).tolist()
    with timer.stage("counter_loop"):
        scored, mispredictions = _run_plan(
            predictor, streams, outcomes, warmup
        )

    if history is not None and history.bits:
        history.value = _final_history(trace.takens, history.bits, seed)

    return SimulationResult(
        predictor=label or predictor.name,
        trace=trace.name,
        conditional_branches=scored,
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits,
        history_bits=getattr(predictor, "history_bits", None),
        engine="vectorized",
    )


def _snapshot_state(predictor: BranchPredictor) -> PredictorState:
    """Capture the mutable state a fast engine could dirty before failing.

    The PR 5 flat-list snapshots grew into :class:`PredictorState`
    (:mod:`repro.sim.state`), which covers *every* family — not just the
    fast-tier ones — and serializes; this wrapper survives as the
    rollback hook so :func:`simulate_fast` and the recovery tests share
    one capture path.
    """
    return PredictorState.capture(predictor)


def _restore_state(predictor: BranchPredictor, state: PredictorState) -> None:
    """Write a :func:`_snapshot_state` capture back into the predictor."""
    state.restore(predictor)


def simulate_fast(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
) -> SimulationResult:
    """Run each spec on the fastest engine that can express it.

    Dispatch order (behaviour is identical on every path, only
    wall-clock differs — this is the entry point the sweep machinery
    uses):

    1. :func:`repro.sim.native.simulate_native` for the table families
       the compiled C backend covers — always-update
       (bimodal/gshare/gselect, single-bank non-LAZY skewed, multi-bank
       TOTAL skewed/e-gskew), single-bank LAZY, and multi-bank PARTIAL
       below the native density ceiling — one fused pack/group/walk
       pass per bank set;
    2. :func:`repro.sim.scan.simulate_scan` for configurations the
       native kernel doesn't take (agree's bias expansion,
       extreme-density PARTIAL, word-width overflow) — and for
       everything native covers when the backend can't build, where
       every table entry is an independent FSM;
    3. :func:`simulate_vectorized` for the remaining index-expressible
       schemes — multi-bank PARTIAL/LAZY, whose banks are coupled
       through the majority vote and therefore need the sequential
       counter loop;
    4. the generic interpreter for everything else (tagged, per-address,
       hybrid and custom-skew schemes).

    ``REPRO_ENGINE`` (see :func:`forced_engine`) overrides the whole
    ladder: the named engine runs directly, raising ``ValueError`` if
    it cannot express the spec, so benchmarks and CI lanes measure
    exactly the tier they name.

    A fast tier that *raises* degrades gracefully instead of killing
    the sweep: the predictor's state is rolled back to the pre-attempt
    snapshot, a ``RuntimeWarning`` records the failure, and the next
    tier runs — every tier is bit-identical, so the degraded result is
    too.  The generic interpreter is the reference implementation and
    the final tier; its errors propagate.  The ``kernel-native`` /
    ``kernel-scan`` / ``kernel-vectorized`` fault sites
    (:mod:`repro.resilience.faults`) inject tier failures
    deterministically to prove that path.
    """
    # Imported lazily: scan and native build on this module's index
    # streams, so top-level imports here would be circular.
    from repro.sim.native import native_supports, simulate_native
    from repro.sim.scan import scan_supports, simulate_scan

    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")

    forced = forced_engine()
    if forced == "generic":
        return simulate(predictor, trace, warmup=warmup, label=label)
    if forced == "vectorized":
        return simulate_vectorized(predictor, trace, warmup=warmup, label=label)
    if forced == "scan":
        return simulate_scan(predictor, trace, warmup=warmup, label=label)
    if forced == "native":
        return simulate_native(predictor, trace, warmup=warmup, label=label)

    tiers = []
    if native_supports(predictor, trace):
        tiers.append(("kernel-native", "native", simulate_native))
    if scan_supports(predictor, trace):
        tiers.append(("kernel-scan", "scan", simulate_scan))
    if supports(predictor, trace):
        tiers.append(("kernel-vectorized", "vectorized", simulate_vectorized))
    for site, tier_name, engine in tiers:
        snapshot = _snapshot_state(predictor)
        try:
            maybe_fail(site)
            return engine(predictor, trace, warmup=warmup, label=label)
        except Exception as exc:
            _restore_state(predictor, snapshot)
            warnings.warn(
                f"{tier_name} engine failed on "
                f"{label or predictor.name} / {trace.name} ({exc!r}); "
                "falling back one tier",
                RuntimeWarning,
                stacklevel=2,
            )
    return simulate(predictor, trace, warmup=warmup, label=label)
