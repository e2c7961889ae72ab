"""Vectorized simulation engine: the counter-walk frame and its Python walk.

For the trace-determined predictors the big sweeps run most — bimodal,
gshare, gselect, gskew, enhanced gskew and agree — *every* table index
is a pure function of the trace and the predictor's index geometry:
training always uses the true branch outcome, so the global-history
register contents at each event are fixed by the event stream before
simulation starts.  What remains sequential is the *counter walk*:
saturating-counter reads and updates, whose values feed back into later
predictions, and under the coupled-update policies (PARTIAL/LAZY on
multi-bank skewed predictors) each bank's training decision reads the
*overall* majority vote, which depends on the other banks' counters at
that instant.

The walk has two backends with the same two entry points —
``repro_walk`` (1, 3 or 5 voted banks) and ``repro_walk_agree`` (agree's
PHT plus biasing bits).  Both take the trace as it is stored — its
``uint32`` code stream and the ``pcs``, ``takens`` and ``conditionals``
columns of its event table (:class:`~repro.traces.trace.Trace`) — and
the predictor's :class:`Geometry` (scheme, index bits, history bits,
the history register's contents before the trace, and e-gskew's bank-0
history bits or agree's biasing-table bits), and compute every
conditional event's indices themselves:

- the C kernel of :mod:`repro.sim.native` reads each event's code and
  then its table row, and evaluates the index functions a block of
  events at a time inside the walk, so no whole-trace column or index
  array exists;
- the Python loops here, for hosts without a compiler, gather the
  three per-event columns for the call and build the per-bank index
  streams for the whole trace with numpy
  (:func:`_index_streams`: the global-history stream by shift/OR
  passes, :func:`repro.traces.pairs.history_stream`, then the
  gshare/gselect index functions and the paper's skewing family in
  closed form — see :mod:`repro.core.skew`) and walk them.  The same numpy code is the test oracle for the C kernel's
  indices.

Nothing is memoised on the trace: a walk holds what it derives only for
the length of the call.  :func:`simulate_walk` is the one frame around
either backend: it hands the backend zero-copy ``numpy`` views of the
predictor's own one-byte counter buffers, one per bank
(:class:`~repro.core.counters.CounterArray`), and of agree's ``int8``
latch codes; the backend updates them in place, and the frame then
advances the history register — so a call copies no table at all.

The result is behaviourally identical to :func:`repro.sim.engine.simulate`
(asserted by the equivalence suite in ``tests/sim/test_vectorized.py``,
like the fused fast paths in the predictors themselves), including the
predictor's final counter, biasing-bit and history state.
:func:`simulate_fast` dispatches each spec to the fastest expressible
engine — the C walk, then (without a compiler) the Python walk, then
the generic interpreter for anything neither can express (the unaliased
table, per-address, hybrid and custom-skew schemes, and, without a
compiler, the fully-associative LRU table, which only the C kernel
walks).
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.counters import MAX_ARRAY_COUNTER_BITS
from repro.core.egskew import EnhancedSkewedPredictor
from repro.core.gskew import SkewedPredictor
from repro.core.update import UpdatePolicy
from repro.predictors.agree import AgreePredictor
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GselectPredictor
from repro.predictors.gshare import GsharePredictor
from repro.resilience.faults import maybe_fail
from repro.sim.engine import simulate
from repro.sim.metrics import SimulationResult
from repro.sim.profile import NULL_STAGE_TIMER, StageTimer
from repro.traces.pairs import _MAX_HISTORY_BITS, history_stream
from repro.traces.trace import Trace

__all__ = [
    "WalkInterrupted",
    "supports",
    "simulate_vectorized",
    "simulate_fast",
    "history_stream",
]

#: every index fits the uint32 the walks read
_MAX_INDEX_BITS = 32


# -- index geometry ------------------------------------------------------------

#: ``repro_walk``'s scheme codes (``REPRO_SCHEME_*`` in the C kernel);
#: agree's code only routes it to ``repro_walk_agree``.
_BIMODAL, _GSHARE, _GSELECT, _SKEW, _EGSKEW, _AGREE = range(6)

#: The bank counts each scheme's walk takes.
_SCHEME_BANKS = {
    _BIMODAL: (1,),
    _GSHARE: (1,),
    _GSELECT: (1,),
    _SKEW: (1, 3, 5),
    _EGSKEW: (3,),
    _AGREE: (1,),
}


class Geometry(NamedTuple):
    """How a predictor turns trace events into table indices: the
    inputs both walks take besides the trace columns and the tables."""

    #: one of the ``_BIMODAL`` ... ``_AGREE`` scheme codes
    scheme: int
    #: index bits per bank; each bank holds ``1 << index_bits`` counters
    index_bits: int
    history_bits: int
    #: the history register's contents before the trace's first event
    seed: int
    #: e-gskew's bank-0 history bits, or agree's biasing-table bits
    extra_bits: int
    banks: int


def _geometry(predictor: BranchPredictor) -> Geometry:
    """The index geometry of a predictor :func:`supports` takes.

    The predictor's *current* history-register contents are the seed,
    so a warm predictor (serving batches, restored snapshots) indexes
    exactly as the generic engine would.
    """
    kind = type(predictor)
    if kind is BimodalPredictor:
        return Geometry(_BIMODAL, predictor.index_bits, 0, 0, 0, 1)
    history = (predictor.history_bits, predictor.history.value)
    if kind is GsharePredictor:
        return Geometry(_GSHARE, predictor.index_bits, *history, 0, 1)
    if kind is GselectPredictor:
        return Geometry(_GSELECT, predictor.index_bits, *history, 0, 1)
    if kind is AgreePredictor:
        return Geometry(
            _AGREE, predictor.index_bits, *history, predictor.bias_table_bits, 1
        )
    n = predictor.bank_index_bits
    if kind is EnhancedSkewedPredictor:
        return Geometry(
            _EGSKEW, n, *history, predictor.bank0_history_bits, 3
        )
    return Geometry(_SKEW, n, *history, 0, len(predictor.banks))


# -- index-stream precomputation (numpy, whole-trace) ----------------------


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
    words: np.ndarray, hist: np.ndarray, n: int, history_bits: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The two n-bit halves ``v1, v2`` of the skewing information vector.

    ``vector = (pc >> 2) << h | hist``, split into its low and next ``n``
    bits.  Only the low ``2n`` bits of the vector matter to the family,
    hence the halves narrow to uint32 for any allocatable bank
    (``n <= 32``), roughly halving the arithmetic of the ~25 array ops
    the family expands to.
    """
    mask = np.uint64((1 << n) - 1)
    vector = (words << np.uint64(history_bits)) | hist
    v1 = vector & mask
    v2 = (vector >> np.uint64(n)) & mask
    if n <= 32:
        return v1.astype(np.uint32), v2.astype(np.uint32)
    return v1, v2  # pragma: no cover — bank > 2**32 entries


def _skew_streams(
    words: np.ndarray, hist: np.ndarray, n: int, history_bits: int, banks: int
) -> List[np.ndarray]:
    """Index streams for the paper's skewing family (1, 3 or 5 banks).

    Built from the information-vector halves of :func:`_skew_halves`;
    the single-bank family is plain address/history truncation, i.e.
    ``v1`` itself.
    """
    v1, v2 = _skew_halves(words, hist, n, history_bits)
    if banks == 1:
        return [v1]
    h1 = _shuffle(v1, n)
    g2 = _shuffle_inverse(v2, n)
    f0 = h1 ^ g2 ^ v2
    f1 = h1 ^ g2 ^ v1
    g1 = _shuffle_inverse(v1, n)
    h2 = _shuffle(v2, n)
    f2 = g1 ^ h2 ^ v2
    if banks == 3:
        return [f0, f1, f2]
    f3 = g1 ^ h2 ^ v1
    f4 = _shuffle(h1, n) ^ _shuffle_inverse(g2, n) ^ v2
    return [f0, f1, f2, f3, f4]


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
    words: np.ndarray, hist: np.ndarray, n: int, bank0_bits: int
) -> np.ndarray:
    """Bank 0 of e-gskew: address truncation, or the ablation's short hash."""
    mask = np.uint64((1 << n) - 1)
    if bank0_bits == 0:
        return words & mask
    short = hist & np.uint64((1 << bank0_bits) - 1)
    address_part = words & mask
    shift = n - bank0_bits
    if shift >= 0:
        return address_part ^ (short << np.uint64(shift))
    return (address_part ^ short) & mask


def _index_streams(
    geometry: Geometry,
    pcs: np.ndarray,
    takens: np.ndarray,
    conditionals: np.ndarray,
) -> List[np.ndarray]:
    """Per-bank index streams over the *conditional* events of a trace.

    The whole-trace numpy form of what ``repro_walk`` computes a block
    at a time; agree's two streams are its PHT index and its
    biasing-bit slot.  Everything here lives only for the call.
    """
    scheme, bits, history_bits, seed, extra_bits, banks = geometry
    conditional = conditionals != 0
    words = (pcs >> np.uint64(2))[conditional]
    if scheme == _BIMODAL:
        return [words & np.uint64((1 << bits) - 1)]
    hist = history_stream(takens, history_bits, seed)[conditional]
    if scheme == _GSHARE:
        return [_gshare_stream(words, hist, bits, history_bits)]
    if scheme == _GSELECT:
        return [_gselect_stream(words, hist, bits, history_bits)]
    if scheme == _AGREE:
        slot_mask = np.uint64((1 << extra_bits) - 1)
        pht = _gshare_stream(words, hist, bits, history_bits)
        return [pht, words & slot_mask]
    if scheme == _EGSKEW:
        _, f1, f2 = _skew_streams(words, hist, bits, history_bits, 3)
        return [_egskew_bank0_stream(words, hist, bits, extra_bits), f1, f2]
    return _skew_streams(words, hist, bits, history_bits, banks)


def supports(predictor: BranchPredictor, trace: Trace) -> bool:
    """True if ``predictor`` has a vectorized fast path over ``trace``."""
    kind = type(predictor)
    if kind is BimodalPredictor:
        return True
    if kind in (
        GsharePredictor, GselectPredictor, EnhancedSkewedPredictor,
        AgreePredictor,
    ):
        return predictor.history_bits <= _MAX_HISTORY_BITS
    if kind is SkewedPredictor:
        return (
            getattr(predictor, "default_skew_family", False)
            and len(predictor.banks) in (1, 3, 5)
            and predictor.history_bits <= _MAX_HISTORY_BITS
        )
    return False


# -- the Python walks --------------------------------------------------------
#
# The loops below index each bank's own table: ``memoryview``s over the
# predictor's one-byte counter buffers (and agree's ``int8`` latch
# codes), read and written in place, one per bank.

#: ``repro_walk``'s policy codes (``REPRO_POLICY_*`` in the C kernel).
_TOTAL, _PARTIAL, _LAZY = 0, 1, 2
_POLICY_CODES = {
    UpdatePolicy.TOTAL: _TOTAL,
    UpdatePolicy.PARTIAL: _PARTIAL,
    UpdatePolicy.LAZY: _LAZY,
}

#: The largest counter a table byte holds.
_MAX_COUNTER_VALUE = (1 << MAX_ARRAY_COUNTER_BITS) - 1


def _loop_single(
    tables: Sequence[memoryview], threshold: int, vmax: int,
    outcomes: Sequence[bool], indices: Sequence[int],
) -> int:
    """One tag-less table: read, score, saturating update."""
    (values,) = tables
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
    tables: Sequence[memoryview], threshold: int, vmax: int,
    outcomes: Sequence[bool],
    i0: Sequence[int], i1: Sequence[int], i2: Sequence[int],
) -> int:
    """3-bank majority vote, partial update (the paper's headline config)."""
    bank0, bank1, bank2 = tables
    miss = 0
    for a, b, c, t in zip(i0, i1, i2, outcomes):
        x = bank0[a]
        y = bank1[b]
        z = bank2[c]
        p0 = x >= threshold
        p1 = y >= threshold
        p2 = z >= threshold
        if ((p0 and p1) or (p2 and (p0 or p1))) != t:
            # Overall wrong: retrain every bank.
            miss += 1
            if t:
                if x < vmax:
                    bank0[a] = x + 1
                if y < vmax:
                    bank1[b] = y + 1
                if z < vmax:
                    bank2[c] = z + 1
            else:
                if x > 0:
                    bank0[a] = x - 1
                if y > 0:
                    bank1[b] = y - 1
                if z > 0:
                    bank2[c] = z - 1
        elif t:
            # Overall correct: strengthen only the agreeing banks.
            if p0 and x < vmax:
                bank0[a] = x + 1
            if p1 and y < vmax:
                bank1[b] = y + 1
            if p2 and z < vmax:
                bank2[c] = z + 1
        else:
            if not p0 and x > 0:
                bank0[a] = x - 1
            if not p1 and y > 0:
                bank1[b] = y - 1
            if not p2 and z > 0:
                bank2[c] = z - 1
    return miss


def _loop3_total(
    tables: Sequence[memoryview], threshold: int, vmax: int,
    outcomes: Sequence[bool],
    i0: Sequence[int], i1: Sequence[int], i2: Sequence[int],
) -> int:
    """3-bank majority vote, total update: every bank trains every branch."""
    bank0, bank1, bank2 = tables
    miss = 0
    for a, b, c, t in zip(i0, i1, i2, outcomes):
        x = bank0[a]
        y = bank1[b]
        z = bank2[c]
        p0 = x >= threshold
        p1 = y >= threshold
        p2 = z >= threshold
        if ((p0 and p1) or (p2 and (p0 or p1))) != t:
            miss += 1
        if t:
            if x < vmax:
                bank0[a] = x + 1
            if y < vmax:
                bank1[b] = y + 1
            if z < vmax:
                bank2[c] = z + 1
        else:
            if x > 0:
                bank0[a] = x - 1
            if y > 0:
                bank1[b] = y - 1
            if z > 0:
                bank2[c] = z - 1
    return miss


def _loop3_lazy(
    tables: Sequence[memoryview], threshold: int, vmax: int,
    outcomes: Sequence[bool],
    i0: Sequence[int], i1: Sequence[int], i2: Sequence[int],
) -> int:
    """3-bank majority vote, lazy update: train only on overall misses."""
    bank0, bank1, bank2 = tables
    miss = 0
    for a, b, c, t in zip(i0, i1, i2, outcomes):
        x = bank0[a]
        y = bank1[b]
        z = bank2[c]
        p0 = x >= threshold
        p1 = y >= threshold
        p2 = z >= threshold
        if ((p0 and p1) or (p2 and (p0 or p1))) != t:
            miss += 1
            if t:
                if x < vmax:
                    bank0[a] = x + 1
                if y < vmax:
                    bank1[b] = y + 1
                if z < vmax:
                    bank2[c] = z + 1
            else:
                if x > 0:
                    bank0[a] = x - 1
                if y > 0:
                    bank1[b] = y - 1
                if z > 0:
                    bank2[c] = z - 1
    return miss


_LOOP3 = {_TOTAL: _loop3_total, _PARTIAL: _loop3_partial, _LAZY: _loop3_lazy}


def _loop_voted(
    policy: int, tables: Sequence[memoryview], threshold: int, vmax: int,
    outcomes: Sequence[bool], *index_lists: Sequence[int],
) -> int:
    """Generic odd-bank-count loop (single-bank LAZY and five banks)."""
    banks = len(index_lists)
    need = banks // 2 + 1
    miss = 0
    preds = [False] * banks
    for row in zip(outcomes, *index_lists):
        t = row[0]
        votes = 0
        for b in range(banks):
            p = tables[b][row[1 + b]] >= threshold
            preds[b] = p
            if p:
                votes += 1
        wrong = (votes >= need) != t
        if wrong:
            miss += 1
        if policy == _TOTAL or wrong:
            train = range(banks)
        elif policy == _PARTIAL:
            train = [b for b in range(banks) if preds[b] == t]
        else:  # LAZY on a correct vote
            train = ()
        for b in train:
            values, idx = tables[b], row[1 + b]
            v = values[idx]
            if t:
                if v < vmax:
                    values[idx] = v + 1
            elif v > 0:
                values[idx] = v - 1
    return miss


def _loop_agree(
    values: memoryview, bias: memoryview, threshold: int, vmax: int,
    indices: Sequence[int], slots: Sequence[int], outcomes: Sequence[bool],
) -> int:
    """Agree: a PHT of agree/disagree counters over latched biasing bits.

    ``bias`` holds latch codes: -1 = unlatched, else the latched
    outcome.  An unlatched slot predicts from the PHT alone (its bias
    defaults to taken), then latches to the outcome; the PHT trains
    toward "the outcome agreed with the bias" — the order of
    :meth:`~repro.predictors.agree.AgreePredictor.predict_and_update`.
    """
    miss = 0
    for idx, slot, t in zip(indices, slots, outcomes):
        v = values[idx]
        latched = bias[slot]
        if latched < 0:
            if (v >= threshold) != t:
                miss += 1
            bias[slot] = t
            agree = True
        else:
            if ((v >= threshold) == latched) != t:
                miss += 1
            agree = t == latched
        if agree:
            if v < vmax:
                values[idx] = v + 1
        elif v > 0:
            values[idx] = v - 1
    return miss


def _check_events(
    codes: np.ndarray, pcs: np.ndarray, takens: np.ndarray,
    conditionals: np.ndarray,
) -> None:
    """Refuse (``ValueError``) event-table columns of unequal length or
    a code past the table's rows: every walk reads rows through codes
    unchecked."""
    if not len(pcs) == len(takens) == len(conditionals):
        raise ValueError("event table columns differ in length")
    if len(codes) and int(codes.max()) >= len(pcs):
        raise ValueError(
            f"code {int(codes.max())} is past the event table's {len(pcs)} rows"
        )


def _check_walk(
    codes: np.ndarray,
    pcs: np.ndarray,
    takens: np.ndarray,
    conditionals: np.ndarray,
    geometry: Geometry,
    max_value: int,
    tables: Sequence[np.ndarray],
    policy: int = _TOTAL,
    bias: Optional[np.ndarray] = None,
) -> None:
    """Refuse walk inputs either backend would read or write past.

    Indices are in range by construction once every code names a row
    of the event table, the geometry is sound and every bank's counter
    table holds ``1 << bits`` entries, so this is the whole of the
    check — made before any walk starts, so a refused walk writes
    nothing.

    Raises:
        ValueError: on event-table columns of unequal length, a code at
            or past the table's row count, a scheme, bank count
            or policy code the walks do not know (agree's scheme goes
            to ``repro_walk_agree`` only), index bits above 32 (or
            below 1 for voted banks, as the skewed predictors require),
            history bits above 63, a seed wider than the history, a
            counter maximum a byte cannot hold, a table count other
            than the bank count, a table (or agree's biasing-bit table)
            of the wrong size, or one that is not a writable ``uint8``
            (``int8`` for the biasing bits) array — the walks write the
            tables in place.
    """
    scheme, bits, history_bits, seed, extra_bits, banks = geometry
    _check_events(codes, pcs, takens, conditionals)
    if banks not in _SCHEME_BANKS.get(scheme, ()):
        raise ValueError(f"scheme {scheme} cannot walk {banks} bank(s)")
    if (scheme == _AGREE) != (bias is not None):
        raise ValueError(f"scheme {scheme} is walked by the other entry point")
    if policy not in _LOOP3:
        raise ValueError(f"unknown update policy code {policy}")
    if not (banks > 1) <= bits <= _MAX_INDEX_BITS:
        raise ValueError(
            f"index bits must be in [{int(banks > 1)}, {_MAX_INDEX_BITS}]"
        )
    if not 0 <= history_bits <= _MAX_HISTORY_BITS:
        raise ValueError(f"history bits must be in [0, {_MAX_HISTORY_BITS}]")
    if not 0 <= seed < 1 << history_bits:
        raise ValueError(f"history seed must fit {history_bits} bits")
    extra_limit = _MAX_INDEX_BITS if scheme == _AGREE else _MAX_HISTORY_BITS
    if not 0 <= extra_bits <= extra_limit:
        raise ValueError(f"extra bits must be in [0, {extra_limit}]")
    if not 0 <= max_value <= _MAX_COUNTER_VALUE:
        raise ValueError(f"counter maximum must be in [0, {_MAX_COUNTER_VALUE}]")
    if len(tables) != banks:
        raise ValueError(f"need one counter table per bank ({banks})")
    states = [(table, np.uint8, 1 << bits) for table in tables]
    if bias is not None:
        states.append((bias, np.int8, 1 << extra_bits))
    for state, dtype, size in states:
        if not (
            isinstance(state, np.ndarray) and state.dtype == dtype
            and state.flags.writeable
        ):
            raise ValueError(
                f"the state tables must be writable arrays of {np.dtype(dtype)}"
            )
        if len(state) != size:
            raise ValueError(f"need tables of {size} entries, not {len(state)}")


class WalkInterrupted(RuntimeError):
    """A walk raised after it began writing the predictor's tables in
    place: the predictor is partly trained, so no tier may resume from
    it — :func:`simulate_fast` re-raises this rather than degrading."""


def _scored(
    loop: Callable[..., int], warmup: int, state: tuple, *streams: memoryview
) -> int:
    """``loop(*state, *streams)``, the first ``warmup`` events trained
    but not scored; returns the scored misses.

    Raises:
        WalkInterrupted: if the loop raises (it writes the tables in
            place, so they may be partly trained).
    """
    try:
        if warmup:  # trains like any event; the misses are not scored
            loop(*state, *(stream[:warmup] for stream in streams))
        return loop(*state, *(stream[warmup:] for stream in streams))
    except Exception as exc:
        raise WalkInterrupted(f"the Python walk failed: {exc!r}") from exc


def _bank_major(streams: List[np.ndarray]) -> np.ndarray:
    """The per-bank index streams as one bank-major uint32 array
    (every index is below ``1 << 32``, the walks' index limit)."""
    indices = np.empty((len(streams), len(streams[0])), dtype=np.uint32)
    for b, stream in enumerate(streams):
        indices[b] = stream
    return indices


def _walk(
    codes: np.ndarray, pcs: np.ndarray, takens: np.ndarray,
    conditionals: np.ndarray, geometry: Geometry, policy: int,
    threshold: int, max_value: int, tables: Sequence[np.ndarray],
    warmup: int,
) -> int:
    """``repro_walk`` in Python: the same inputs, state and result.

    ``tables`` are the banks' ``uint8`` counter tables, one per bank,
    walked in place and left in their final state.  Returns the misses
    past ``warmup`` conditional events.

    Raises:
        ValueError: on inputs :func:`_check_walk` refuses (tables
            untouched).
        WalkInterrupted: if the loop fails once it began writing.
    """
    _check_walk(
        codes, pcs, takens, conditionals, geometry, max_value, tables, policy
    )
    pcs, takens, conditionals = pcs[codes], takens[codes], conditionals[codes]
    banks = geometry.banks
    if banks == 3:
        loop = _LOOP3[policy]
    elif banks == 1 and policy != _LAZY:
        loop = _loop_single  # one bank: PARTIAL trains like TOTAL
    else:
        loop = partial(_loop_voted, policy)
    # Memoryviews iterate as Python ints (and the outcomes as bools, the
    # loops' fast truth test) without building lists first, and index
    # the tables in place.
    rows = [
        memoryview(row)
        for row in _bank_major(_index_streams(geometry, pcs, takens, conditionals))
    ]
    ts = memoryview(takens[conditionals != 0].astype(np.bool_))
    views = [memoryview(table) for table in tables]
    return _scored(loop, warmup, (views, threshold, max_value), ts, *rows)


def _walk_agree(
    codes: np.ndarray, pcs: np.ndarray, takens: np.ndarray,
    conditionals: np.ndarray, geometry: Geometry, threshold: int,
    max_value: int, values: np.ndarray, bias: np.ndarray, warmup: int,
) -> int:
    """``repro_walk_agree`` in Python: the same inputs, state and result.

    ``values`` (the ``uint8`` PHT) and ``bias`` (``int8`` latch codes,
    -1 = unlatched) are walked in place and left in their final state;
    returns the misses past ``warmup`` conditional events.

    Raises:
        ValueError: on inputs :func:`_check_walk` refuses (tables
            untouched).
        WalkInterrupted: if the loop fails once it began writing.
    """
    _check_walk(
        codes, pcs, takens, conditionals, geometry, max_value, [values],
        bias=bias,
    )
    pcs, takens, conditionals = pcs[codes], takens[codes], conditionals[codes]
    keys, slot_list = map(
        memoryview, _bank_major(_index_streams(geometry, pcs, takens, conditionals))
    )
    ts = memoryview(takens[conditionals != 0].astype(np.bool_))
    state = (memoryview(values), memoryview(bias), threshold, max_value)
    return _scored(_loop_agree, warmup, state, keys, slot_list, ts)


# -- the frame ---------------------------------------------------------------


class WalkBackend(NamedTuple):
    """One implementation of the counter walk behind a fast tier.

    ``walk`` and ``walk_agree`` take the C kernel's ``repro_walk`` /
    ``repro_walk_agree`` inputs — the trace's code stream and the
    ``pcs``, ``takens`` and ``conditionals`` of its event table, the
    :class:`Geometry`, the policy code (``walk`` only), the counter
    threshold and maximum, the state tables and the warmup — with the
    state tables as ``numpy`` views of the predictor's own buffers
    (``walk``: one ``uint8`` counter table per bank; ``walk_agree``: the
    ``uint8`` PHT and the ``int8`` latch codes), which they update in
    place, and return the miss count.  They touch nothing but those
    tables, refuse inputs :func:`_check_walk` refuses before touching
    them, and raise :class:`WalkInterrupted` for any failure after.
    """

    #: ``SimulationResult.engine`` of the tier.
    engine: str
    #: Whether the tier can run a predictor over a trace.
    supports: Callable[[BranchPredictor, Trace], bool]
    walk: Callable[..., int]
    walk_agree: Callable[..., int]


#: The Python loops: the walk on hosts without a C compiler.
PYTHON_BACKEND = WalkBackend("vectorized", supports, _walk, _walk_agree)


def _final_history(trace: Trace, bits: int, seed: int = 0) -> int:
    """Register contents after the whole trace has shifted through.

    ``seed`` is the register's value *before* the trace; it only matters
    when the trace is shorter than the register (mid-stream batches).
    """
    value = seed
    tail = trace.codes[-bits:] if bits else trace.codes[:0]
    for t in trace.table.takens[tail].tolist():
        value = (value << 1) | t
    return value & ((1 << bits) - 1 if bits else 0)


def simulate_walk(
    backend: WalkBackend,
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` with ``backend``'s counter walk.

    The frame both fast tiers share: the predictor's index geometry,
    zero-copy ``numpy`` views of its counter buffers (one per bank) and
    of agree's latch codes, the walk over the trace's codes and event
    table, which updates those buffers in place, then the history
    register.  No table is copied, so a call costs nothing per table
    entry.  Every refusal (:func:`_check_walk`, an unsupported
    geometry) comes before the walk's first write, so a backend that
    raises leaves the predictor exactly as it was.  ``stage_timer``
    (optional) accumulates per-stage wall-clock under ``"precompute"``
    (the geometry and the views), ``"scan"`` (the walk, index
    computation included) and ``"reduce"`` (the history register).

    Raises:
        ValueError: if ``backend`` cannot run the predictor (callers
            wanting automatic fallback use :func:`simulate_fast`).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not backend.supports(predictor, trace):
        raise ValueError(
            f"no {backend.engine} path for {type(predictor).__name__}; "
            "use simulate_fast() or the generic engine"
        )
    timer = NULL_STAGE_TIMER if stage_timer is None else stage_timer
    agree = type(predictor) is AgreePredictor
    if agree:
        counters = [predictor.pht.counters]
    elif hasattr(predictor, "banks"):
        counters = [bank.counters for bank in predictor.banks]
    else:
        counters = [predictor.bank.counters]
    threshold, vmax = counters[0].threshold, counters[0].max_value
    columns = (trace.codes, *trace.table[:3])

    with timer.stage("precompute"):
        geometry = _geometry(predictor)
        tables = [np.frombuffer(c.values, dtype=np.uint8) for c in counters]
        if agree:
            bias = np.frombuffer(predictor._bias, dtype=np.int8)
    with timer.stage("scan"):
        if agree:
            misses = backend.walk_agree(
                *columns, geometry, threshold, vmax, tables[0], bias, warmup
            )
        else:
            policy = getattr(predictor, "update_policy", UpdatePolicy.TOTAL)
            misses = backend.walk(
                *columns, geometry, _POLICY_CODES[policy], threshold, vmax,
                tables, warmup,
            )
    with timer.stage("reduce"):
        history = getattr(predictor, "history", None)
        if history is not None and history.bits:
            history.value = _final_history(trace, history.bits, history.value)

    return _walk_result(predictor, trace, warmup, label, misses, backend.engine)


def _walk_result(
    predictor: BranchPredictor, trace: Trace, warmup: int,
    label: Optional[str], misses: int, engine: str,
) -> SimulationResult:
    """The result of a walk that scored ``misses`` past ``warmup``."""
    return SimulationResult(
        predictor=label or predictor.name,
        trace=trace.name,
        conditional_branches=max(0, trace.conditional_count - warmup),
        mispredictions=misses,
        storage_bits=predictor.storage_bits,
        history_bits=getattr(predictor, "history_bits", None),
        engine=engine,
    )


def simulate_vectorized(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """:func:`simulate_walk` with the Python loops.

    Identical arguments and result to :func:`repro.sim.engine.simulate`,
    and the same final counter, agree-bias and history state.

    Raises:
        ValueError: if the predictor has no vectorized path (callers
            wanting automatic fallback use :func:`simulate_fast`).
    """
    return simulate_walk(
        PYTHON_BACKEND, predictor, trace, warmup, label, stage_timer
    )


def simulate_fast(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
) -> SimulationResult:
    """Run each spec on the fastest engine that can express it.

    This is the entry point every experiment and the sweep machinery
    use.  Behaviour is identical on every path, only wall-clock
    differs, and the tier follows only from what dispatch can observe
    — whether the spec is index-expressible and whether the C backend
    built:

    1. :func:`repro.sim.native.simulate_native` for every
       index-expressible spec — bimodal/gshare/gselect, skewed and
       e-gskew under any update policy, and agree — and the
       fully-associative LRU table: the C walks;
    2. when the C backend cannot build, :func:`simulate_vectorized`,
       the same frame with the Python walk (index-expressible only);
    3. the generic interpreter for everything else (unaliased,
       per-address, hybrid and custom-skew schemes, and the LRU table
       without a compiler).

    A fast tier that *raises* degrades gracefully instead of killing
    the sweep: every refusal comes before its walk's first write to the
    predictor's tables, so a ``RuntimeWarning`` records the failure
    and the next tier runs from the untouched predictor — every tier is
    bit-identical, so the degraded result is too.  A walk that fails
    *after* it began writing (:class:`WalkInterrupted`; neither backend
    does short of an interpreter error) leaves the tables partly
    trained, so it propagates instead: the serving layer's flush
    restores its snapshot, and any other caller owns a dirty predictor.  The generic
    interpreter is the reference implementation and the final tier;
    its errors propagate.  The ``kernel-native`` /
    ``kernel-vectorized`` fault sites
    (:mod:`repro.resilience.faults`) inject tier failures
    deterministically to prove that path.
    """
    # Imported lazily: native builds on this module's frame, so a
    # top-level import here would be circular.
    from repro.sim.native import native_supports, simulate_native

    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")

    tiers = []
    if native_supports(predictor, trace):
        tiers.append(("kernel-native", "native", simulate_native))
    if supports(predictor, trace):
        tiers.append(("kernel-vectorized", "vectorized", simulate_vectorized))
    for site, tier_name, engine in tiers:
        try:
            maybe_fail(site)
            return engine(predictor, trace, warmup=warmup, label=label)
        except WalkInterrupted:
            raise  # the tables are partly trained: no tier can resume
        except Exception as exc:
            warnings.warn(
                f"{tier_name} engine failed on "
                f"{label or predictor.name} / {trace.name} ({exc!r}); "
                "falling back one tier",
                RuntimeWarning,
                stacklevel=2,
            )
    return simulate(predictor, trace, warmup=warmup, label=label)
