"""Scan simulation engine: transition-composition counter kernel.

The vectorized engine (:mod:`repro.sim.vectorized`) precomputes every
table index in closed form but still walks the saturating counters with
a per-branch Python loop.  For *always-update* configurations that loop
is not irreducible: each table entry is an independent finite-state
machine driven only by the outcomes of the events that hit that entry,
so the whole simulation factors into per-entry subproblems that numpy
can evaluate together.  This module replaces the loop with a grouped
scan — no per-branch Python at all:

1. events are grouped per (bank, entry) by **one in-place sort** of
   ``tag | key | position | outcome`` packed into uint32 words (the
   position bits make the words distinct, so an unstable sort yields
   the stable grouped order, and key, outcome and original position
   all shift back out of the sorted words); geometries too wide for 32
   bits fall back to a radix argsort over the key stream plus gathers;
2. maximal same-entry, same-outcome **runs** are collapsed: a run of
   ``L`` taken outcomes acts on a ``k``-bit counter as the map
   ``v -> clip(v + L, 0, vmax)`` (and ``-L`` for not-taken), because
   same-direction steps can only saturate at one end;
3. each run's map is a *clamped-add* map ``v -> clip(v + a, lo, hi)``.
   These maps are closed under composition::

       (a1, lo1, hi1) then (a2, lo2, hi2)
           = (a1 + a2, clip(lo1 + a2, lo2, hi2), clip(hi1 + a2, lo2, hi2))

   so the counter value *entering* each run falls out of an exclusive
   segmented parallel prefix (Hillis–Steele) over the run sequence —
   log-depth numpy sweeps instead of a per-event loop.  Two facts keep
   the sweeps short and cheap: a run with ``L >= vmax`` composes to a
   *constant* map, so the scan only needs as many doubling levels as
   the longest gap between such absorbing runs (single digits in
   practice); and because any map with ``|a| > vmax`` is already
   constant, ``a`` may either grow unclamped (when the doubling depth
   provably keeps it inside int16 — the common case, saving two numpy
   calls per sweep) or be re-clamped to ``[-(vmax+1), vmax+1]`` each
   pass (the fallback for degenerate depths and wide counters);
4. per-run **prediction reads** follow in closed form: within a run the
   counter walks monotonically from its pre-state, so the number of
   mispredictions in a run is ``clip(threshold - pre, 0, L)`` (taken
   runs) or ``clip(pre - threshold + 1, 0, L)`` (not-taken runs).
   When per-event predictions are needed (warmup scoring, majority
   votes, agree re-encoding), the same monotonicity means each run's
   prediction flips at most once, at a closed-form crossing position:
   one ``np.repeat`` of the per-run crossing compared against a cached
   position iota yields every vote;
5. reductions are elementwise boolean algebra and ``np.count_nonzero``.

Coverage — which specs the scan expresses
-----------------------------------------

* **bimodal / gshare / gselect**: training always uses the true outcome,
  independent of any prediction — per-entry FSMs, scan applies.
* **skewed (gskew/e-gskew), TOTAL update**: every bank trains on every
  branch, so each bank's counters are again trace-determined.  All
  banks' events go through *one* batched kernel with bank-tagged keys
  (``index | bank << bank_index_bits``); the (odd, hence tie-free)
  majority vote then counts per-bank *wrongness* directly — wrong
  (bank, event) pairs are sparse per-run intervals, enumerated and
  bincounted per event — because complementing every vote complements
  a tie-free majority.
* **skewed, single bank, PARTIAL or TOTAL**: with one bank the majority
  vote *is* the bank's own prediction, so PARTIAL ("train the agreeing
  banks, or all on a miss") degenerates to always-update.
* **skewed, single bank, LAZY**: "train only on a miss" reads the
  prediction, so the transition is not a clamped-add map — but it *is*
  a monotone map on the (at most 2-bit) counter domain, so runs scan
  with explicit 4-state map codes composed through a 64 KiB LUT
  (``_scan_single_lazy``).
* **skewed multi-bank, PARTIAL**: whether a bank trains depends on the
  overall majority vote, which reads the *other* banks' counters — the
  banks form one coupled state machine.  The kernel breaks the coupling
  with a fixpoint iteration on the per-event vote-wrongness vector
  ``w``: given ``w``, each bank decomposes into per-entry map-code
  scans again, and the recomputed vote is a *causal* function of ``w``,
  so the iteration provably converges to the unique fixpoint — the true
  trajectory.  Convergence propagates along vote-sensitivity chains, so
  ``_scan_coupled`` checkpoints the trace into blocks that each settle
  in 2-3 local rounds (with an exact sequential-loop fallback at a
  round cap).  Restricted to 1/2-bit counters (the map-code domain),
  which covers every paper configuration.  Multi-bank *LAZY* stays on
  the loop: its counters freeze on every correct vote, so a wrong guess
  is never washed out by later training and the measured chains run
  ~10x longer — past the point where blocked iteration pays.
* **agree**: the biasing bit latches to the branch's first observed
  outcome, which is trace-determined; re-encoding the outcome stream as
  "agreed with bias?" makes the PHT an always-update table.  The only
  subtlety is the *prediction-side* bias at a slot's very first
  execution (default taken, before the latch), which the per-event
  expansion handles explicitly — a closed-form run reduction cannot,
  because at first-touch events "PHT wrong" and "prediction wrong"
  decouple.

The compiled native tier (:mod:`repro.sim.native`) walks every
index-expressible spec — all of the above, plus multi-bank LAZY — in
trace order in C, which needs none of this module's grouping or
fixpoint machinery, and outranks it in the ``simulate_fast`` ladder.
This tier is the fallback for hosts without a C compiler.

Like the vectorized engine, index streams assume the predictor starts
with a fresh (all-zero) history register — the state a newly
constructed predictor has.  Counter (and agree-bias) state is taken
from the live predictor, so warm tables work; results are bit-identical
to :func:`repro.sim.engine.simulate` including final counter, bias and
history state (asserted by ``tests/sim/test_scan.py``, including a
hypothesis property over random traces).  See ``docs/performance.md``
for the derivation, the dispatch decision table and measured speedups.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from repro.core.egskew import EnhancedSkewedPredictor
from repro.core.gskew import SkewedPredictor
from repro.core.update import UpdatePolicy
from repro.predictors.agree import AgreePredictor
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GselectPredictor
from repro.predictors.gshare import GsharePredictor
from repro.sim.metrics import SimulationResult
from repro.sim.profile import NULL_STAGE_TIMER, StageTimer
from repro.sim.vectorized import (
    _MAX_HISTORY_BITS,
    _agree_streams,
    _cond_takens,
    _final_history,
    _index_streams,
    _run_plan,
)
from repro.sim.vectorized import supports as _vector_supports
from repro.traces.trace import Trace

__all__ = ["scan_supports", "simulate_scan", "counter_scan"]

#: group keys are sorted as uint16/uint32 radix passes
_MAX_KEY_BITS = 32

#: the int16 monoid composes |a1 + a2| <= 2 * (max_value + 1) without
#: overflow (2^14 for 13-bit counters; 14 bits would wrap at +-2^15)
_MAX_COUNTER_BITS = 13

#: read-only position iotas keyed by length (see ``_positions``)
_POSITION_CACHE: "dict[int, np.ndarray]" = {}


def _positions(count: int) -> np.ndarray:
    """Read-only cached ``np.arange(count, dtype=int32)``.

    The kernel compares grouped positions against per-run crossing
    points on every simulation, and sweeps revisit a handful of trace
    lengths, so memoizing the iota trades a little memory for one
    m-sized write per call.  The array is marked immutable; callers
    must treat it as a constant.
    """
    cached = _POSITION_CACHE.get(count)
    if cached is None:
        if len(_POSITION_CACHE) >= 8:
            _POSITION_CACHE.clear()
        cached = np.arange(count, dtype=np.int32)
        cached.setflags(write=False)
        _POSITION_CACHE[count] = cached
    return cached


# -- the kernel -------------------------------------------------------------


def _group_order(keys: np.ndarray, key_bits: int) -> np.ndarray:
    """Stable permutation grouping equal keys, preserving event order.

    numpy's stable argsort is a radix sort for 16-bit integers (O(n))
    but falls back to comparison sorting for wider types; keys of up to
    32 bits are therefore sorted as two stable 16-bit passes (LSD radix
    by composition of stable sorts).
    """
    if key_bits <= 16:
        return np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    low = np.argsort(keys.astype(np.uint16), kind="stable")
    high = (keys >> np.uint32(16)).astype(np.uint16)
    return low[np.argsort(high[low], kind="stable")]


class _RunScan(NamedTuple):
    """Run-level view of one grouped counter table (see ``_run_scan``)."""

    order: Optional[np.ndarray]  # grouping permutation, or None when the
    # caller grouped the events itself (``_scan_voted`` sorts per bank)
    taken_sorted: np.ndarray  # outcomes in grouped order
    run_starts: np.ndarray  # grouped position of each run's first event
    run_taken: np.ndarray  # the run's (uniform) outcome
    run_len: np.ndarray  # events per run
    run_pre: np.ndarray  # counter value entering the run (int8/int16)
    final_values: np.ndarray  # per-entry counter values after all events
    events: int


def _run_scan(
    keys: np.ndarray,
    outcomes: np.ndarray,
    values: np.ndarray,
    max_value: int,
    key_bits: int,
    timer: StageTimer,
) -> _RunScan:
    """Group, run-length encode and scan one saturating-counter table.

    ``keys`` (unsigned) index the entry each event trains, ``outcomes``
    (bool) are the training directions, ``values`` (int64) the entries'
    starting counters.  Requires at least one event.  Keys are narrowed
    to the smallest width holding ``key_bits`` so the sort, gathers and
    run comparisons all move minimal memory.
    """
    if key_bits <= 16:
        keys = keys.astype(np.uint16, copy=False)
    elif keys.dtype != np.uint32:
        keys = keys.astype(np.uint32)
    with timer.stage("argsort"):
        order = _group_order(keys, key_bits)
        key_s = keys[order]
        tak_s = outcomes[order]
    scan = _sorted_scan(key_s, tak_s, values, max_value, timer)
    return scan._replace(order=order)


def _sorted_scan(
    key_s: np.ndarray,
    tak_s: np.ndarray,
    values: np.ndarray,
    max_value: int,
    timer: StageTimer,
) -> _RunScan:
    """Run-length encode and scan an already-grouped counter table.

    ``key_s``/``tak_s`` are the entry keys and outcomes in grouped
    (stable) order; ``values`` (int64) the entries' starting counters.
    The returned ``order`` is None — callers that need to unsort keep
    their own permutation.
    """
    m = len(key_s)
    with timer.stage("scan"):
        # maximal (entry, outcome) runs
        new_run = np.empty(m, dtype=bool)
        new_run[0] = True
        np.logical_or(
            key_s[1:] != key_s[:-1], tak_s[1:] != tak_s[:-1], out=new_run[1:]
        )
        run_starts = np.flatnonzero(new_run)
        run_key = key_s[run_starts]
        run_tak = tak_s[run_starts]
        run_len = np.diff(run_starts, append=m)
    return _run_level_scan(
        run_key, run_tak, run_len, run_starts, tak_s, values, max_value, m,
        timer,
    )


def _run_level_scan(
    run_key: np.ndarray,
    run_tak: np.ndarray,
    run_len: np.ndarray,
    run_starts: np.ndarray,
    taken_sorted: Optional[np.ndarray],
    values: np.ndarray,
    max_value: int,
    events: int,
    timer: StageTimer,
) -> _RunScan:
    """Map composition over an already run-length-encoded event stream.

    ``run_key`` must distinguish entries *globally* (bank tags included)
    so the segment guard and the final-state scatter see one segment per
    table entry.  ``taken_sorted`` is carried through for callers that
    later expand per-event predictions; pure-wrongness consumers pass
    None.
    """
    runs = len(run_starts)
    with timer.stage("scan"):
        new_seg = np.empty(runs, dtype=bool)
        new_seg[0] = True
        np.not_equal(run_key[1:], run_key[:-1], out=new_seg[1:])

        # Clamped-add maps (a, lo, hi), one per run, as a (3, runs)
        # int16 matrix.  |a| starts capped at max_value + 1: any map
        # shifted past a boundary is constant, so the cap preserves the
        # function while keeping the values narrow.
        cap = max_value + 1
        map_dtype = np.int16
        maps = np.empty((3, runs), dtype=map_dtype)
        length_capped = np.minimum(run_len, cap).astype(map_dtype)
        maps[0] = length_capped
        np.negative(length_capped, out=maps[0], where=~run_tak)
        maps[1] = 0
        maps[2] = max_value

        # Runs of length >= max_value compose to constant maps; the scan
        # only needs to reach back to the nearest such absorbing run (or
        # segment start), which bounds the doubling levels far below
        # log2(runs) on real traces.
        position = _positions(runs)
        anchored = np.where(
            new_seg | (run_len >= max_value), position, np.int32(-1)
        )
        np.maximum.accumulate(anchored, out=anchored)
        levels_needed = int((position - anchored).max()) + 1

        # Segmented Hillis-Steele scan: after the pass at distance d,
        # maps[:, i] composes runs (i-2d, i] of i's segment; the equality
        # guard keeps compositions inside one (contiguous) key segment
        # (np.copyto leaves guarded positions untouched in place).  The
        # sweeps are call-overhead bound (the run arrays are tiny), so
        # the shift row is left *unclamped* whenever the doubling depth
        # provably cannot overflow: |a| at most doubles per pass, hence
        # stays within 2 * levels_needed * cap, and every downstream use
        # adds one in-range counter value.  Degenerate depths (one giant
        # unsaturated segment) and wide counters re-clamp ``a`` to
        # ``[-cap, cap]`` each pass instead — same function, two more
        # numpy calls per pass.
        limit = np.iinfo(map_dtype).max
        clamp = max_value + 2 * levels_needed * cap > limit
        offset = 1
        while offset < levels_needed:
            tail = maps[:, offset:]
            composed = maps[:, :-offset] + tail[0]
            if clamp:
                np.maximum(composed[0], -cap, out=composed[0])
                np.minimum(composed[0], cap, out=composed[0])
            np.maximum(composed[1:], tail[1], out=composed[1:])
            np.minimum(composed[1:], tail[2], out=composed[1:])
            same = run_key[offset:] == run_key[:-offset]
            np.copyto(tail, composed, where=same)
            offset <<= 1

        # Exclusive stage: the counter entering run i is the composed map
        # of its segment's prefix (ending at run i-1) applied to the
        # entry's starting value.
        narrow = values.astype(map_dtype)
        entry_start = narrow[run_key]
        run_pre = np.empty(runs, dtype=map_dtype)
        run_pre[0] = entry_start[0]
        previous = entry_start[1:] + maps[0, :-1]
        np.maximum(previous, maps[1, :-1], out=previous)
        np.minimum(previous, maps[2, :-1], out=previous)
        run_pre[1:] = np.where(new_seg[1:], entry_start[1:], previous)

        # Final counter state: apply each segment's full composition
        # (held by its last run after the scan) to the starting value.
        last_of_seg = np.empty(runs, dtype=bool)
        last_of_seg[:-1] = new_seg[1:]
        last_of_seg[-1] = True
        closing = entry_start[last_of_seg] + maps[0][last_of_seg]
        np.maximum(closing, maps[1][last_of_seg], out=closing)
        np.minimum(closing, maps[2][last_of_seg], out=closing)
        final_values = values.copy()
        final_values[run_key[last_of_seg]] = closing

    return _RunScan(
        order=None,
        taken_sorted=taken_sorted,
        run_starts=run_starts,
        run_taken=run_tak,
        run_len=run_len,
        run_pre=run_pre,
        final_values=final_values,
        events=events,
    )


def _wrong_spans(scan: _RunScan, threshold: int) -> np.ndarray:
    """Per-run count of mispredicted events, as the crossing interval.

    Within a run the counter walks monotonically from ``run_pre``, so
    the mispredicted events are exactly the run's prefix before the
    prediction flips: ``clip(threshold - pre, 0, len)`` events for
    taken runs, mirrored for not-taken (see ``_crossings``).
    """
    pre = scan.run_pre.astype(np.int32)
    span = np.where(
        scan.run_taken,
        np.int32(threshold) - pre,
        pre - np.int32(threshold - 1),
    )
    np.minimum(span, scan.run_len, out=span)
    np.maximum(span, np.int32(0), out=span)
    return span


def _wrong_grouped_positions(scan: _RunScan, threshold: int) -> np.ndarray:
    """Grouped positions of every mispredicted event.

    Enumerates the per-run wrong intervals ``[run_start, run_start +
    span)``.  Wrong events are sparse (well-trained tables mispredict a
    small fraction of events), so downstream reductions on this array
    touch far less memory than an events-sized wrongness vector.
    """
    return _spans_to_grouped(scan.run_starts, _wrong_spans(scan, threshold))


def _spans_to_grouped(run_starts: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Enumerate grouped positions of per-run prefix intervals.

    Expands each run's ``[run_start, run_start + span)`` interval into
    explicit grouped positions — the sparse-enumeration core shared by
    ``_wrong_grouped_positions`` and the coupled-policy vote recount.
    """
    live = np.flatnonzero(span)
    if not len(live):
        return np.empty(0, dtype=np.int64)
    live_spans = span[live]
    bounds = np.cumsum(live_spans)
    grouped = np.arange(int(bounds[-1]), dtype=np.int64)
    grouped += np.repeat(run_starts[live] + live_spans - bounds, live_spans)
    return grouped


def _run_misses(scan: _RunScan, threshold: int) -> int:
    """Closed-form misprediction count over whole runs (valid only when
    every event scores, i.e. warmup == 0, and the miss criterion is
    "this table's own prediction was wrong" — single-table schemes)."""
    return int(_wrong_spans(scan, threshold).sum())


def _packed_runs(packed: np.ndarray, shift: int, timer: StageTimer):
    """Run-length encode sorted ``key | position | outcome`` words.

    Runs break where anything but the position changes: the key bits
    (``>= shift``) or the outcome bit (bit 0).  Returns ``(run_key,
    run_tak, run_len, run_starts)`` with the key and outcome extracted
    from each run's first word — no permutation gathers.  Works on any
    unsigned word width.
    """
    m = len(packed)
    word = packed.dtype.type
    with timer.stage("scan"):
        new_run = np.empty(m, dtype=bool)
        new_run[0] = True
        delta = packed[1:] ^ packed[:-1]
        keep = word(~((1 << shift) - 2) & np.iinfo(packed.dtype).max)
        np.bitwise_and(delta, keep, out=delta)
        np.not_equal(delta, word(0), out=new_run[1:])
        run_starts = np.flatnonzero(new_run)
        first_words = packed[run_starts]
        run_key = first_words >> word(shift)
        run_tak = (first_words & word(1)) != 0
        run_len = np.diff(run_starts, append=m)
    return run_key, run_tak, run_len, run_starts


# -- the map-code monoid (coupled update policies) --------------------------
#
# PARTIAL and LAZY runs are not clamped-add maps (a bank may freeze while
# its entry's other events train), but they are still *monotone maps on a
# tiny domain*: with at most 2-bit counters every per-run transition is a
# function {0..3} -> {0..3}, encodable in one byte (2 bits per input
# value).  Composition becomes a 64 KiB table lookup, so the same
# segmented Hillis-Steele machinery scans them — just with byte codes
# instead of (a, lo, hi) triples.

#: codes hold four 2-bit output values, so only 1/2-bit counters (the
#: paper's only widths) take the coupled scan
_MAX_COUPLED_COUNTER_BITS = 2

#: events per checkpointed fixpoint block (see ``_scan_coupled``): the
#: vote-wrongness iteration converges by *prefix extension* — a wrong
#: guess perturbs every later vote reachable through a sensitivity
#: chain, and measured chains run ~3-5k events on the IBS workloads —
#: so iterating whole traces needs O(n / chain) rounds.  Blocks a bit
#: longer than a chain converge in 2-3 local rounds from their exact
#: entering state, making total work linear in the trace.
_COUPLED_BLOCK = 8192

#: local rounds one block may take before the driver abandons the scan
#: and falls back to the exact sequential loop (prefix extension
#: guarantees convergence within the block length; the cap only trips
#: on adversarial traces whose sensitivity chains out-run it)
_COUPLED_ROUND_LIMIT = 64

#: max events per bank entry for the coupled PARTIAL fixpoint to claim a
#: cell.  Sensitivity chains grow with aliasing density, so rounds per
#: block scale with events/entry: measured per-cell on IBS groff
#: (n=96473), gskew 3x4096 (24 ev/entry) takes ~4 rounds/block and
#: matches the sequential loop, 3x1024 (94) is ~1.7x slower than the
#: loop, and 3x64 (1507) is ~36 rounds/block — 10x slower.  Below this
#: density the scan wins or ties; above it the vectorized loop is
#: strictly faster, so dense cells keep that tier.
_MAX_PARTIAL_DENSITY = 64

#: lazily built composition / constancy LUTs (see ``_code_tables``)
_CODE_LUTS: "dict[str, np.ndarray]" = {}


def _code_tables() -> "tuple[np.ndarray, np.ndarray]":
    """LUTs for the 4-state map-code monoid, built once per process.

    A code packs a map ``f: {0..3} -> {0..3}`` as four 2-bit fields
    (``f(v)`` at bits ``2v``).  Returns ``(compose, is_const)`` where
    ``compose[a | b << 8]`` is the code of "apply ``a`` then ``b``"
    (65536 bytes) and ``is_const[a]`` flags constant maps — the
    absorbing anchors of the segmented scan.
    """
    if not _CODE_LUTS:
        codes = np.arange(256, dtype=np.uint16)
        # fields[code, v] = the code's output for input value v
        fields = np.stack(
            [(codes >> np.uint16(2 * v)) & 3 for v in range(4)], axis=1
        ).astype(np.uint8)
        # then_b[b, a, v] = fields[b, fields[a, v]]  ("a then b")
        then_b = fields[:, fields]
        compose = (
            then_b[..., 0]
            | (then_b[..., 1] << 2)
            | (then_b[..., 2] << 4)
            | (then_b[..., 3] << 6)
        ).astype(np.uint8)
        # C-order flattening puts "a then b" at index b * 256 + a,
        # exactly the ``a | b << 8`` lookup the scan builds.
        flat = compose.reshape(-1)
        is_const = (
            (fields[:, 0] == fields[:, 1])
            & (fields[:, 0] == fields[:, 2])
            & (fields[:, 0] == fields[:, 3])
        )
        flat.setflags(write=False)
        is_const.setflags(write=False)
        _CODE_LUTS["compose"] = flat
        _CODE_LUTS["const"] = is_const
    return _CODE_LUTS["compose"], _CODE_LUTS["const"]


def _pack_fields(fields: np.ndarray) -> np.ndarray:
    """Pack a (4, runs) output-value matrix into map codes."""
    code = fields[0].astype(np.uint8)
    code |= fields[1].astype(np.uint8) << np.uint8(2)
    code |= fields[2].astype(np.uint8) << np.uint8(4)
    code |= fields[3].astype(np.uint8) << np.uint8(6)
    return code


def _coupled_run_codes(
    run_tak: np.ndarray,
    run_w: np.ndarray,
    run_len: np.ndarray,
    threshold: int,
    max_value: int,
) -> np.ndarray:
    """PARTIAL map codes for maximal (entry, outcome, vote-wrong) runs.

    Within such a run the bank's transition is closed-form: when the
    overall vote is wrong (``run_w``) PARTIAL trains every bank, a
    clamped add of the (capped) run length; when the vote is right it
    trains exactly the banks whose own prediction agrees — and an
    agreeing counter moving toward the outcome keeps agreeing, so the
    whole run either trains or freezes.  Run lengths are capped at
    4 >= max_value, past which every map here is already saturated.
    """
    capped = np.minimum(run_len, 4).astype(np.int16)
    v0 = np.minimum(np.arange(4, dtype=np.int16), max_value)[:, None]
    up = np.minimum(v0 + capped, np.int16(max_value))
    down = np.maximum(v0 - capped, np.int16(0))
    trained = np.where(run_tak, up, down)
    agrees = (v0 >= threshold) == run_tak
    untrained = np.where(agrees, trained, v0)
    return _pack_fields(np.where(run_w, trained, untrained))


def _lazy_single_run_codes(
    run_tak: np.ndarray,
    run_len: np.ndarray,
    threshold: int,
    max_value: int,
) -> np.ndarray:
    """Map codes for single-bank LAZY (entry, outcome) runs.

    With one bank the overall vote *is* the bank's prediction, so
    "train on a miss" needs no fixpoint: a run trains while the counter
    still predicts against the run direction and freezes the moment it
    crosses — taken runs climb to ``threshold`` and stop, not-taken
    runs fall to ``threshold - 1`` and stop.
    """
    capped = np.minimum(run_len, 4).astype(np.int16)
    v0 = np.minimum(np.arange(4, dtype=np.int16), max_value)[:, None]
    predicts_taken = v0 >= threshold
    # an agreeing run never trains; a disagreeing run walks to the
    # threshold boundary and freezes there
    up = np.where(
        predicts_taken, v0, np.minimum(v0 + capped, np.int16(threshold))
    )
    down = np.where(
        predicts_taken,
        np.maximum(v0 - capped, np.int16(threshold - 1)),
        v0,
    )
    return _pack_fields(np.where(run_tak, up, down))


def _code_scan(
    run_key: np.ndarray, codes: np.ndarray, new_seg: np.ndarray
) -> None:
    """Segmented inclusive Hillis-Steele over map codes, in place.

    The mirror of ``_run_level_scan``'s sweep with LUT composition in
    place of clamped-add arithmetic: after the pass at distance ``d``,
    ``codes[i]`` composes runs ``(i - 2d, i]`` of ``i``'s segment.
    Constant codes absorb exactly like saturated clamped-add runs, so
    the doubling depth is again the longest gap back to a constant run
    or segment start.
    """
    compose, is_const = _code_tables()
    runs = len(codes)
    position = _positions(runs)
    anchored = np.where(new_seg | is_const[codes], position, np.int32(-1))
    np.maximum.accumulate(anchored, out=anchored)
    levels_needed = int((position - anchored).max()) + 1
    offset = 1
    while offset < levels_needed:
        tail = codes[offset:]
        index = tail.astype(np.uint16)
        index <<= np.uint16(8)
        np.bitwise_or(index, codes[:-offset], out=index)
        same = run_key[offset:] == run_key[:-offset]
        np.copyto(tail, compose[index], where=same)
        offset <<= 1


def _code_pre_and_finals(
    run_key: np.ndarray,
    codes: np.ndarray,
    new_seg: np.ndarray,
    values: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Exclusive stage of a code scan: run entry values + final state.

    ``codes`` must already be inclusively scanned.  Applying a code is
    one shift-and-mask (``(code >> 2v) & 3``); the counter entering run
    ``i`` applies run ``i - 1``'s prefix composition to the entry's
    starting value, and each segment's last run holds the composition
    that produces the entry's final counter.
    """
    runs = len(codes)
    entry_start = values[run_key].astype(np.uint8)
    run_pre = np.empty(runs, dtype=np.int16)
    run_pre[0] = entry_start[0]
    applied = (codes[:-1] >> (entry_start[1:] << np.uint8(1))) & np.uint8(3)
    run_pre[1:] = np.where(new_seg[1:], entry_start[1:], applied)
    last_of_seg = np.empty(runs, dtype=bool)
    last_of_seg[:-1] = new_seg[1:]
    last_of_seg[-1] = True
    closing = (
        codes[last_of_seg] >> (entry_start[last_of_seg] << np.uint8(1))
    ) & np.uint8(3)
    final_values = values.copy()
    final_values[run_key[last_of_seg]] = closing
    return run_pre, final_values


def _coupled_wrong_spans(
    run_tak: np.ndarray,
    run_w: np.ndarray,
    run_len: np.ndarray,
    run_pre: np.ndarray,
    threshold: int,
) -> np.ndarray:
    """Per-run count of *bank-wrong* events under coupled dynamics.

    Vote-wrong runs train every bank toward the outcome, so the usual
    crossing formula applies (``_wrong_spans``).  Vote-right runs never
    move a counter across the threshold (PARTIAL trains only counters
    already on the outcome's side; LAZY freezes), so the bank's
    prediction is constant: wrong for the whole run or not at all.
    """
    pre = run_pre.astype(np.int32)
    span = np.where(
        run_tak, np.int32(threshold) - pre, pre - np.int32(threshold - 1)
    )
    np.minimum(span, run_len, out=span)
    np.maximum(span, np.int32(0), out=span)
    steady_wrong = (pre >= threshold) != run_tak
    return np.where(run_w, span, run_len * steady_wrong)


def _crossings(scan: _RunScan, threshold: int) -> np.ndarray:
    """Per-event *crossing* position, repeated run-wise (grouped order).

    The counter before event j of a run is ``run_pre ± j`` — clipping
    cannot engage before the prediction flips, so the unclipped walk
    compares identically against the threshold.  The walk is monotone,
    so the prediction flips at most once per run, at a closed-form
    grouped position: ``run_start + threshold - run_pre`` for taken
    runs, mirrored for not-taken.  An event at or past its crossing
    predicts *with* the run direction; before it, against.
    """
    pre = scan.run_pre.astype(np.int32)
    crossing = np.where(
        scan.run_taken, np.int32(threshold) - pre, pre - np.int32(threshold - 1)
    )
    crossing += scan.run_starts.astype(np.int32)
    return np.repeat(crossing, scan.run_len)


def _event_predictions(scan: _RunScan, threshold: int) -> np.ndarray:
    """Per-event predicted direction, in *grouped* order.

    ``reached == taken`` folds the two run directions into one equality:
    past the crossing the prediction equals the run's outcome, before it
    the complement.
    """
    reached = _crossings(scan, threshold) <= _positions(scan.events)
    np.equal(reached, scan.taken_sorted, out=reached)
    return reached


def _event_mispredicts(scan: _RunScan, threshold: int) -> np.ndarray:
    """Per-event "this table predicted wrong", in *grouped* order.

    Since the prediction equals the outcome exactly when the crossing
    has been reached (see ``_event_predictions``), wrongness is simply
    ``crossing > position`` — one comparison, no outcome gather.
    """
    return _crossings(scan, threshold) > _positions(scan.events)


def counter_scan(
    keys: np.ndarray,
    outcomes: np.ndarray,
    values: "np.ndarray | List[int]",
    threshold: int,
    max_value: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """The scan kernel as a standalone primitive.

    Simulates one tag-less table of saturating counters: event ``i``
    reads entry ``keys[i]`` (prediction = value >= ``threshold``) and
    then steps it toward ``outcomes[i]``, saturating in
    ``[0, max_value]``.  Returns ``(predictions, final_values)`` with
    predictions in original event order — the array a per-event Python
    loop would produce, computed by run-length grouping and clamped-add
    map composition instead.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    outcomes = np.asarray(outcomes, dtype=bool)
    values = np.asarray(values, dtype=np.int64)
    if len(keys) == 0:
        return np.empty(0, dtype=bool), values.copy()
    key_bits = max(int(keys.max()).bit_length(), 1)
    scan = _run_scan(
        keys, outcomes, values, max_value, key_bits, NULL_STAGE_TIMER
    )
    predictions = np.empty(len(keys), dtype=bool)
    predictions[scan.order] = _event_predictions(scan, threshold)
    return predictions, scan.final_values


# -- per-scheme drivers -----------------------------------------------------


def _scan_single_table(
    counters,
    stream: np.ndarray,
    key_bits: int,
    outcomes: np.ndarray,
    warmup: int,
    timer: StageTimer,
) -> int:
    """One tag-less table (bimodal/gshare/gselect, single-bank skewed).

    When ``key | position | outcome`` packs into 32 bits (every paper
    geometry) the events are grouped with one in-place sort of the
    composite words — the same trick ``_scan_voted`` uses, see its
    docstring for the stability argument.  Warmup scoring recovers the
    original event positions of the (sparse) wrong events from the
    packed words instead of expanding an events-sized wrongness vector.
    """
    values = np.asarray(counters.values, dtype=np.int64)
    threshold = counters.threshold
    n = len(outcomes)
    shift = max(1, (n - 1).bit_length()) + 1  # position | outcome field
    if key_bits + shift <= 32:
        with timer.stage("argsort"):
            packed = np.empty(n, dtype=np.uint32)
            np.left_shift(
                stream, np.uint32(shift), out=packed, casting="unsafe"
            )
            low_word = np.empty(n, dtype=np.uint32)
            np.left_shift(_positions(n), 1, out=low_word, casting="unsafe")
            np.bitwise_or(low_word, outcomes, out=low_word, casting="unsafe")
            np.bitwise_or(packed, low_word, out=packed)
            packed.sort()
        run_key, run_tak, run_len, run_starts = _packed_runs(
            packed, shift, timer
        )
        scan = _run_level_scan(
            run_key, run_tak, run_len, run_starts, None, values,
            counters.max_value, n, timer,
        )
        with timer.stage("reduce"):
            if warmup == 0:
                misses = _run_misses(scan, threshold)
            else:
                grouped = _wrong_grouped_positions(scan, threshold)
                wrong_events = (
                    packed[grouped] & np.uint32((1 << shift) - 2)
                ) >> np.uint32(1)
                misses = int(np.count_nonzero(wrong_events >= warmup))
            counters.values[:] = scan.final_values.tolist()
        return misses

    # Wide geometry: permutation grouping (the explicit order doubles as
    # the event positions for warmup scoring).
    scan = _run_scan(
        stream, outcomes, values, counters.max_value, key_bits, timer
    )
    with timer.stage("reduce"):
        if warmup == 0:
            misses = _run_misses(scan, threshold)
        else:
            wrong = _event_mispredicts(scan, threshold)
            wrong &= scan.order >= warmup  # order values = event positions
            misses = int(np.count_nonzero(wrong))
        counters.values[:] = scan.final_values.tolist()
    return misses


def _pack_bank_blocks(
    streams: List[np.ndarray],
    outcomes: np.ndarray,
    shift: int,
    entry_bits: int,
    dtype: type,
) -> np.ndarray:
    """Pack and sort per-bank ``tag | key | position | outcome`` words.

    Each bank's events occupy one contiguous block, sorted *in place*
    as composite words: the position bits make the words distinct, so
    an unstable sort yields exactly the stable grouped order, and key,
    outcome and original position all shift back out of the sorted
    words.  The caller picks the word width (``np.uint32`` when
    ``key_bits + shift <= 32``, ``np.uint64`` otherwise — the coupled
    kernels need the wider words for long traces).  The
    tagged key fits the bits above ``shift`` by the caller's width
    check, so the down-cast is exact.
    """
    n = len(outcomes)
    low_word = np.empty(n, dtype=dtype)
    np.left_shift(_positions(n), 1, out=low_word, casting="unsafe")
    np.bitwise_or(low_word, outcomes, out=low_word, casting="unsafe")
    packed = np.empty(len(streams) * n, dtype=dtype)
    for b, stream in enumerate(streams):
        block = packed[b * n : (b + 1) * n]
        np.left_shift(stream, dtype(shift), out=block, casting="unsafe")
        np.bitwise_or(block, low_word, out=block)
        if b:
            np.bitwise_or(
                block, dtype(b << (entry_bits + shift)), out=block
            )
        block.sort()
    return packed


def _scan_voted(
    predictor: SkewedPredictor,
    streams: List[np.ndarray],
    outcomes: np.ndarray,
    warmup: int,
    timer: StageTimer,
) -> int:
    """Multi-bank TOTAL-update skewed predictor: batched banks + vote.

    All banks run through one kernel invocation on bank-tagged keys (so
    the run encoding and scan amortise across banks).  Bank counts are
    odd by construction (``SkewedPredictor`` rejects even counts — the
    majority vote must be tie-free), which licenses the complement
    trick in the reduce stage: complementing every vote complements the
    majority, so "majority of banks were wrong" *is* "the overall
    prediction was wrong", and per-event votes never materialise.

    Grouping exploits that each bank's events sit in one contiguous
    block.  When ``tag | key | position | outcome`` packs into 32 bits
    (every paper geometry), each block is sorted *in place* as one
    composite word: the position bits make the words distinct — so an
    unstable sort yields exactly the stable grouped order — and the run
    encoding, outcomes and unsort permutations all shift right out of
    the sorted words instead of being gathered through a permutation
    array.  Wider geometries fall back to per-bank stable argsorts.
    """
    banks = predictor.banks
    bank_count = len(banks)
    entry_bits = predictor.bank_index_bits
    entries = 1 << entry_bits
    counters = banks[0].counters
    n = len(outcomes)
    m = bank_count * n
    tag_bits = (bank_count - 1).bit_length()
    key_bits = entry_bits + tag_bits

    with timer.stage("precompute"):
        values = np.concatenate(
            [np.asarray(bank.counters.values, dtype=np.int64) for bank in banks]
        )

    shift = max(1, (n - 1).bit_length()) + 1  # position | outcome field
    if key_bits + shift <= 32:
        with timer.stage("argsort"):
            packed = _pack_bank_blocks(
                streams, outcomes, shift, entry_bits, np.uint32
            )
        run_key, run_tak, run_len, run_starts = _packed_runs(
            packed, shift, timer
        )
        scan = _run_level_scan(
            run_key, run_tak, run_len, run_starts, None, values,
            counters.max_value, m, timer,
        )
        position_mask = np.uint32(((1 << shift) - 2))
    else:  # pragma: no cover — no paper geometry is this wide
        packed = None
        with timer.stage("precompute"):
            key_dtype = np.uint16 if key_bits <= 16 else np.uint32
            keys = np.empty(m, dtype=key_dtype)
            for b, stream in enumerate(streams):
                np.add(
                    stream,
                    key_dtype(b << entry_bits),
                    out=keys[b * n : (b + 1) * n],
                    casting="unsafe",
                )
        with timer.stage("argsort"):
            key_s = np.empty(m, dtype=key_dtype)
            tak_s = np.empty(m, dtype=bool)
            bank_orders = []
            for b in range(bank_count):
                lo = b * n
                block = keys[lo : lo + n]
                local = (
                    np.argsort(block, kind="stable")
                    if key_dtype is np.uint16
                    else _group_order(block, key_bits)
                )
                key_s[lo : lo + n] = block[local]
                tak_s[lo : lo + n] = outcomes[local]
                bank_orders.append(local)
        scan = _sorted_scan(key_s, tak_s, values, counters.max_value, timer)

    with timer.stage("reduce"):
        threshold = counters.threshold
        majority = bank_count // 2 + 1
        if packed is not None:
            # Wrong (bank, event) pairs are sparse (< 10% of ``m`` on
            # the paper workloads), so enumerating the wrong intervals
            # (``_wrong_grouped_positions``) and bincounting the event
            # indices recovered from the packed words' position bits
            # beats expanding an m-sized wrongness vector and scattering
            # it bank by bank.
            grouped = _wrong_grouped_positions(scan, threshold)
            events = (packed[grouped] & position_mask) >> np.uint32(1)
            wrong_banks = np.bincount(events, minlength=n)
            wrong = wrong_banks >= majority
            misses = int(np.count_nonzero(wrong[warmup:]))
        else:  # pragma: no cover — wide fallback
            per_bank = np.empty((bank_count, n), dtype=bool)
            wrong_votes = _event_mispredicts(scan, threshold)
            for b, local in enumerate(bank_orders):
                per_bank[b][local] = wrong_votes[b * n : (b + 1) * n]
            wrong = per_bank.sum(axis=0) >= majority
            misses = int(np.count_nonzero(wrong[warmup:]))
        final = scan.final_values
        for b, bank in enumerate(banks):
            bank.counters.values[:] = final[
                b * entries : (b + 1) * entries
            ].tolist()
    return misses


def _scan_single_lazy(
    counters,
    stream: np.ndarray,
    key_bits: int,
    outcomes: np.ndarray,
    warmup: int,
    timer: StageTimer,
) -> int:
    """Single-bank LAZY skewed predictor: train-on-miss map-code scan.

    The transition reads the prediction, so it is not a clamped-add
    map, but it *is* a monotone map on a 2-bit domain (see
    ``_lazy_single_run_codes``), and with one bank there is no vote
    coupling: one code scan, no fixpoint.  Mispredicted events are the
    usual crossing prefix — the counter trains precisely while it still
    predicts against the run direction.
    """
    values = np.asarray(counters.values, dtype=np.int64)
    threshold = counters.threshold
    n = len(outcomes)
    shift = max(1, (n - 1).bit_length()) + 1
    order = None
    if key_bits + shift <= 32:
        with timer.stage("argsort"):
            packed = _pack_bank_blocks(
                [stream], outcomes, shift, key_bits, np.uint32
            )
        run_key, run_tak, run_len, run_starts = _packed_runs(
            packed, shift, timer
        )
    else:
        # Wide geometry: permutation grouping (the explicit order
        # doubles as the event positions for warmup scoring).
        if key_bits <= 16:
            stream = stream.astype(np.uint16, copy=False)
        elif stream.dtype != np.uint32:
            stream = stream.astype(np.uint32)
        with timer.stage("argsort"):
            order = _group_order(stream, key_bits)
            key_s = stream[order]
            tak_s = outcomes[order]
        with timer.stage("scan"):
            new_run = np.empty(n, dtype=bool)
            new_run[0] = True
            np.logical_or(
                key_s[1:] != key_s[:-1],
                tak_s[1:] != tak_s[:-1],
                out=new_run[1:],
            )
            run_starts = np.flatnonzero(new_run)
            run_key = key_s[run_starts]
            run_tak = tak_s[run_starts]
            run_len = np.diff(run_starts, append=n)

    with timer.stage("scan"):
        runs = len(run_starts)
        new_seg = np.empty(runs, dtype=bool)
        new_seg[0] = True
        np.not_equal(run_key[1:], run_key[:-1], out=new_seg[1:])
        codes = _lazy_single_run_codes(
            run_tak, run_len, threshold, counters.max_value
        )
        _code_scan(run_key, codes, new_seg)
        run_pre, final_values = _code_pre_and_finals(
            run_key, codes, new_seg, values
        )

    with timer.stage("reduce"):
        pre = run_pre.astype(np.int32)
        span = np.where(
            run_tak, np.int32(threshold) - pre, pre - np.int32(threshold - 1)
        )
        np.minimum(span, run_len, out=span)
        np.maximum(span, np.int32(0), out=span)
        if warmup == 0:
            misses = int(span.sum())
        else:
            grouped = _spans_to_grouped(run_starts, span)
            if order is None:
                wrong_events = (
                    packed[grouped] & np.uint32((1 << shift) - 2)
                ) >> np.uint32(1)
            else:
                wrong_events = order[grouped]
            misses = int(np.count_nonzero(wrong_events >= warmup))
        counters.values[:] = final_values.tolist()
    return misses


def _scan_coupled(
    predictor: SkewedPredictor,
    streams: List[np.ndarray],
    outcomes: np.ndarray,
    warmup: int,
    timer: StageTimer,
) -> Optional[int]:
    """Multi-bank PARTIAL skewed predictor: vote-wrongness fixpoint.

    Under this policy whether a bank trains at event ``i`` depends on
    the overall vote at ``i`` — the coupling that rules out independent
    per-entry scans.  But *given* the per-event vote-wrongness vector
    ``w``, every bank decomposes again: runs break at (entry, outcome,
    ``w``) changes and each run's transition is a closed-form monotone
    map (``_coupled_run_codes``).  Let ``F(w)`` be the wrongness vector
    recomputed from those per-bank scans.  ``F`` is *causal* —
    ``F(w)[i]`` reads only counters trained at events before ``i``, so
    it depends only on ``w[:i]`` — hence ``F`` has exactly one fixpoint,
    the true trajectory, and Jacobi iteration ``w <- F(w)`` converges:
    if ``w`` is correct on a prefix, ``F(w)`` is correct on a strictly
    longer one.  Counter saturation erases wrong-tail state differences
    much faster than that worst case; the iteration starts from
    all-wrong (whose first round reproduces TOTAL dynamics, a strong
    guess for the true vote stream) and settles in a handful of rounds.

    A wrong guess at event ``i`` perturbs every later vote reachable
    through a sensitivity chain, so whole-trace iteration converges at
    the chain rate — O(n) rounds in the worst case.  The driver instead
    *checkpoints*: the trace is cut into ``_COUPLED_BLOCK``-event
    blocks, each iterated to its local fixpoint from the exact counter
    state the previous blocks produced.  Chains rarely outlive a block,
    so each block settles in 2-3 rounds and total work stays linear.

    Returns the misprediction count, or None when some block did not
    settle within ``_COUPLED_ROUND_LIMIT`` rounds (the caller falls
    back to the exact sequential loop).
    """
    banks = predictor.banks
    bank_count = len(banks)
    entry_bits = predictor.bank_index_bits
    entries = 1 << entry_bits
    counters = banks[0].counters
    threshold = counters.threshold
    max_value = counters.max_value
    majority = bank_count // 2 + 1
    n = len(outcomes)
    tag_bits = (bank_count - 1).bit_length()
    key_bits = entry_bits + tag_bits

    with timer.stage("precompute"):
        values = np.concatenate(
            [np.asarray(bank.counters.values, dtype=np.int64) for bank in banks]
        )

    w_full = np.empty(n, dtype=bool)
    for lo in range(0, n, _COUPLED_BLOCK):
        hi = min(lo + _COUPLED_BLOCK, n)
        nb = hi - lo
        mb = bank_count * nb
        block_outcomes = outcomes[lo:hi]
        shift = max(1, (nb - 1).bit_length()) + 1
        dtype = np.uint32 if key_bits + shift <= 32 else np.uint64

        with timer.stage("argsort"):
            packed = _pack_bank_blocks(
                [s[lo:hi] for s in streams],
                block_outcomes,
                shift,
                entry_bits,
                dtype,
            )
        with timer.stage("scan"):
            gkey_s = packed >> dtype(shift)
            tak_s = (packed & dtype(1)) != 0
            pos_s = (
                (packed >> dtype(1)) & dtype((1 << (shift - 1)) - 1)
            ).astype(np.int64)
            # Boundaries at (bank, entry, outcome) changes; each round
            # ORs in the current guess's w-changes.
            base_break = np.empty(mb, dtype=bool)
            base_break[0] = True
            delta = packed[1:] ^ packed[:-1]
            keep = dtype(~((1 << shift) - 2) & np.iinfo(dtype).max)
            np.bitwise_and(delta, keep, out=delta)
            np.not_equal(delta, dtype(0), out=base_break[1:])

        w = np.ones(nb, dtype=bool)
        for _ in range(_COUPLED_ROUND_LIMIT):
            with timer.stage("scan"):
                w_s = w[pos_s]
                new_run = base_break.copy()
                np.logical_or(
                    new_run[1:], w_s[1:] != w_s[:-1], out=new_run[1:]
                )
                run_starts = np.flatnonzero(new_run)
                run_len = np.diff(run_starts, append=mb)
                run_key = gkey_s[run_starts]
                run_tak = tak_s[run_starts]
                run_w = w_s[run_starts]
                runs = len(run_starts)
                new_seg = np.empty(runs, dtype=bool)
                new_seg[0] = True
                np.not_equal(run_key[1:], run_key[:-1], out=new_seg[1:])
                codes = _coupled_run_codes(
                    run_tak, run_w, run_len, threshold, max_value
                )
                _code_scan(run_key, codes, new_seg)
                run_pre, final_values = _code_pre_and_finals(
                    run_key, codes, new_seg, values
                )
            with timer.stage("reduce"):
                span = _coupled_wrong_spans(
                    run_tak, run_w, run_len, run_pre, threshold
                )
                grouped = _spans_to_grouped(run_starts, span)
                wrong_banks = np.bincount(pos_s[grouped], minlength=nb)
                w_new = wrong_banks >= majority
                if np.array_equal(w_new, w):
                    break
                w = w_new
        else:
            return None  # block did not settle; caller runs the loop
        w_full[lo:hi] = w
        values = final_values  # exact state entering the next block

    with timer.stage("reduce"):
        misses = int(np.count_nonzero(w_full[warmup:]))
        for b, bank in enumerate(banks):
            bank.counters.values[:] = values[
                b * entries : (b + 1) * entries
            ].tolist()
    return misses


def _scan_agree(
    predictor: AgreePredictor,
    trace: Trace,
    outcomes: np.ndarray,
    warmup: int,
    timer: StageTimer,
) -> int:
    """Agree predictor: trace-determined bias latching + agree-encoded PHT.

    The biasing bit of each slot latches to the outcome of the slot's
    first execution — a pure function of the trace — so the PHT's
    training stream re-encodes in closed form as "did the branch agree
    with its (eventual) bias?".  Predictions need the per-event
    expansion: at a slot's first execution the *prediction* still uses
    the default bias (taken) while training already uses the newly
    latched one, so "PHT counter wrong" and "prediction wrong" differ
    exactly at unlatched first touches.
    """
    counters = predictor.pht.counters
    n = len(outcomes)
    with timer.stage("precompute"):
        pht_keys, slots = _agree_streams(predictor, trace)

        bias_table = predictor._bias
        pre_bias = np.array(
            [-1 if latched is None else int(latched) for latched in bias_table],
            dtype=np.int8,
        )
        touched_slots, first_positions = np.unique(slots, return_index=True)
        first_touch = np.full(len(bias_table), n, dtype=np.int64)
        first_touch[touched_slots] = first_positions
        event_first = first_touch[slots]
        latching_outcome = outcomes[event_first]
        event_latched = pre_bias[slots] >= 0
        latched_value = pre_bias[slots] == 1
        train_bias = np.where(event_latched, latched_value, latching_outcome)
        pht_outcomes = outcomes == train_bias

    scan = _run_scan(
        pht_keys,
        pht_outcomes,
        np.asarray(counters.values, dtype=np.int64),
        counters.max_value,
        predictor.index_bits,
        timer,
    )

    with timer.stage("reduce"):
        agree = np.empty(n, dtype=bool)
        agree[scan.order] = _event_predictions(scan, counters.threshold)
        is_first_touch = np.arange(n, dtype=np.int64) == event_first
        predict_bias = np.where(
            event_latched,
            latched_value,
            np.where(is_first_touch, True, latching_outcome),
        )
        prediction = np.where(agree, predict_bias, ~predict_bias)
        wrong = prediction != outcomes
        misses = int(np.count_nonzero(wrong[warmup:]))
        counters.values[:] = scan.final_values.tolist()
        newly_latched = touched_slots[pre_bias[touched_slots] < 0]
        for slot in newly_latched.tolist():
            bias_table[slot] = bool(outcomes[first_touch[slot]])
    return misses


# -- the engine -------------------------------------------------------------


def scan_supports(predictor: BranchPredictor, trace: Trace) -> bool:
    """True if ``predictor`` has a scan fast path over ``trace``.

    Every index-expressible family except multi-bank LAZY:
    bimodal/gshare/gselect/agree, skewed/e-gskew under TOTAL (the
    clamped-add kernel), multi-bank PARTIAL (the map-code fixpoint
    kernel) and single-bank LAZY (the map-code scan), the code-based
    paths restricted to the map-code domain (1/2-bit counters).  All
    within the kernel's key-width (32-bit) and counter-width (int16
    monoid) bounds, which every paper configuration satisfies by
    orders of magnitude.  See the module docstring for why multi-bank
    LAZY keeps the sequential loop.
    """
    kind = type(predictor)
    if kind is BimodalPredictor:
        return (
            predictor.index_bits <= _MAX_KEY_BITS
            and predictor.bank.counters.bits <= _MAX_COUNTER_BITS
        )
    if kind in (GsharePredictor, GselectPredictor):
        return (
            predictor.history_bits <= _MAX_HISTORY_BITS
            and predictor.index_bits <= _MAX_KEY_BITS
            and predictor.bank.counters.bits <= _MAX_COUNTER_BITS
        )
    if kind is AgreePredictor:
        return (
            predictor.history_bits <= _MAX_HISTORY_BITS
            and predictor.index_bits <= _MAX_KEY_BITS
            and predictor.pht.counters.bits <= _MAX_COUNTER_BITS
        )
    if kind in (SkewedPredictor, EnhancedSkewedPredictor):
        if not _vector_supports(predictor, trace):
            return False
        counters = predictor.banks[0].counters
        if counters.bits > _MAX_COUNTER_BITS:
            return False
        bank_count = len(predictor.banks)
        tag_bits = (bank_count - 1).bit_length()
        if predictor.bank_index_bits + tag_bits > _MAX_KEY_BITS:
            return False
        if bank_count == 1:
            if predictor.update_policy is UpdatePolicy.LAZY:
                # train-on-miss: map-code scan, 2-bit domain only
                return counters.bits <= _MAX_COUPLED_COUNTER_BITS
            return True
        if predictor.update_policy is UpdatePolicy.TOTAL:
            return True
        if predictor.update_policy is UpdatePolicy.LAZY:
            # Multi-bank LAZY counters freeze on every correct vote, so
            # a wrong fixpoint guess is *never* washed out by later
            # training — measured sensitivity chains run ~10x longer
            # than PARTIAL's and the blocked iteration stops paying.
            # The loop keeps this (non-headline) family.
            return False
        # Multi-bank PARTIAL: the vote-wrongness fixpoint kernel needs
        # the map-code monoid (2-bit counters) and the packed-word
        # layout — event positions ride in the sorted words, so the
        # tagged key plus the position|outcome field must fit a word.
        # It also needs low aliasing density: fixpoint rounds scale with
        # events per entry (see _MAX_PARTIAL_DENSITY), so dense cells
        # stay on the vectorized loop, which beats the scan there.
        if counters.bits > _MAX_COUPLED_COUNTER_BITS:
            return False
        n = len(_cond_takens(trace))
        if n > _MAX_PARTIAL_DENSITY << predictor.bank_index_bits:
            return False
        shift = max(1, (min(n, _COUPLED_BLOCK) - 1).bit_length()) + 1
        return predictor.bank_index_bits + tag_bits + shift <= 64
    return False


def simulate_scan(
    predictor: BranchPredictor,
    trace: Trace,
    warmup: int = 0,
    label: Optional[str] = None,
    stage_timer: Optional[StageTimer] = None,
) -> SimulationResult:
    """Scan-kernel counterpart of :func:`repro.sim.engine.simulate`.

    Identical arguments and result; also leaves the predictor's
    counters, agree-bias bits and history register in the same final
    state the generic engine would.  ``stage_timer`` (optional)
    accumulates per-stage wall-clock under ``"precompute"`` (history +
    index streams), ``"argsort"`` (event grouping), ``"scan"``
    (run encoding + map composition) and ``"reduce"`` (predictions,
    votes, miss counts, state writeback).

    Raises:
        ValueError: if the predictor has no scan path (callers wanting
            automatic fallback use :func:`simulate_fast`).
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not scan_supports(predictor, trace):
        raise ValueError(
            f"no scan path for {type(predictor).__name__}; "
            "use simulate_fast() or the generic engine"
        )
    timer = NULL_STAGE_TIMER if stage_timer is None else stage_timer
    kind = type(predictor)
    history = getattr(predictor, "history", None)
    seed = history.value if history is not None else 0

    with timer.stage("precompute"):
        outcomes = _cond_takens(trace)
    n = len(outcomes)

    if n == 0:
        mispredictions = 0
    elif kind is AgreePredictor:
        mispredictions = _scan_agree(predictor, trace, outcomes, warmup, timer)
    else:
        with timer.stage("precompute"):
            streams = _index_streams(predictor, trace)
        if len(streams) == 1:
            bank = (
                predictor.bank
                if hasattr(predictor, "bank")
                else predictor.banks[0]
            )
            key_bits = (
                predictor.index_bits
                if hasattr(predictor, "index_bits")
                else predictor.bank_index_bits
            )
            if (
                hasattr(predictor, "banks")
                and predictor.update_policy is UpdatePolicy.LAZY
            ):
                mispredictions = _scan_single_lazy(
                    bank.counters, streams[0], key_bits, outcomes, warmup,
                    timer,
                )
            else:
                mispredictions = _scan_single_table(
                    bank.counters, streams[0], key_bits, outcomes, warmup,
                    timer,
                )
        elif predictor.update_policy is UpdatePolicy.TOTAL:
            mispredictions = _scan_voted(
                predictor, streams, outcomes, warmup, timer
            )
        else:
            mispredictions = _scan_coupled(
                predictor, streams, outcomes, warmup, timer
            )
            if mispredictions is None:
                # The fixpoint hit its round cap (adversarial traces
                # only); the sequential loop is exact and mutates the
                # same predictor state, so the result contract holds.
                with timer.stage("counter_loop"):
                    _, mispredictions = _run_plan(
                        predictor, streams, outcomes.tolist(), warmup
                    )

    if history is not None and history.bits:
        with timer.stage("reduce"):
            history.value = _final_history(trace.takens, history.bits, seed)

    return SimulationResult(
        predictor=label or predictor.name,
        trace=trace.name,
        conditional_branches=max(0, n - warmup),
        mispredictions=mispredictions,
        storage_bits=predictor.storage_bits,
        history_bits=getattr(predictor, "history_bits", None),
        engine="scan",
    )
