"""One-pass vectorized 3Cs aliasing engine.

The reference instruments in :mod:`repro.aliasing.three_cs` walk the
(address, history) pair stream one reference at a time — an
``OrderedDict`` LRU for the fully-associative floor and a Python list of
tags per direct-mapped table — and a Figure-1-style size sweep re-walks
the whole trace once per table size.  This module computes the same
numbers from whole-trace numpy arrays:

1. **pair stream** — per-event global-history values come from
   :func:`repro.sim.vectorized.history_stream`; the conditional events'
   word addresses and histories are sliced out in one shot and factorised
   into dense integer keys (:func:`pair_keys`);
2. **stack distances** — the last-use distance of every reference (the
   number of *distinct* pairs since its previous occurrence) is computed
   for the whole stream at once by :func:`last_use_distances`, an
   offline merge-counting algorithm whose per-level work is a handful of
   numpy passes (O(n log^2 n) total, all in C);
3. **fully-associative LRU, all sizes at once** — an N-entry LRU table
   hits a reference iff its distance is < N, so the miss counts of
   *every* table size in a sweep fall out of one sorted-distance array
   via ``searchsorted`` (O(1) per size after the single pass);
4. **direct-mapped tagged tables** — for each index function the
   previous occupant of every entry is recovered with one stable argsort
   per (scheme, size): group accesses by index, compare each key with
   its predecessor in the group.

:func:`measure_aliasing_sweep` returns breakdowns **bit-identical** to
the reference implementation (integer counts equal, hence the derived
float ratios equal) for every size in the grid — asserted across the six
IBS clone workloads by ``tests/aliasing/test_vectorized_three_cs.py``
and timed as the ``model`` workload's ``aliasing.sweep_s`` row of
``bench/run.py --trace 1``.

Histories longer than 63 bits do not fit the uint64 shift register
(:func:`supports` returns False); dispatchers fall back to the reference
path for those.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.aliasing.three_cs import AliasingBreakdown
from repro.sim.vectorized import _MAX_HISTORY_BITS, history_stream
from repro.traces.trace import Trace

__all__ = [
    "supports",
    "pair_columns",
    "pair_keys",
    "last_use_distances",
    "pair_last_use_distances",
    "scheme_indices",
    "measure_aliasing_sweep",
    "measure_aliasing_vectorized",
]


def supports(history_bits: int) -> bool:
    """Whether the vectorized engine can handle this history length."""
    return 0 <= history_bits <= _MAX_HISTORY_BITS


def pair_columns(
    trace: Trace, history_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(word addresses, histories) of every conditional branch, as uint64.

    Row ``i`` equals the ``i``-th pair yielded by
    :func:`repro.aliasing.three_cs.pair_stream`: the global history is
    shifted by every control transfer, conditional or not.
    """
    if not supports(history_bits):
        raise ValueError(
            f"history bits must be in [0, {_MAX_HISTORY_BITS}], "
            f"got {history_bits}"
        )
    conditional = trace.conditionals.astype(bool)
    words = (trace.pcs >> np.uint64(2))[conditional]
    histories = history_stream(trace.takens, history_bits)[conditional]
    return words, histories


def pair_keys(
    words: np.ndarray, histories: np.ndarray, history_bits: int
) -> np.ndarray:
    """Factorise (word, history) pairs into one comparable key per pair.

    Equal pairs map to equal keys and distinct pairs to distinct keys —
    all the distance and tag instruments need.  When the shifted word
    fits, the key is the exact ``(word << history_bits) | history``
    packing; otherwise both columns are rank-compressed first (traces
    would need more distinct values than fit 31 bits each to overflow
    that fallback).
    """
    if len(words) == 0:
        return np.empty(0, dtype=np.uint64)
    if history_bits == 0:
        return words
    if int(words.max()) < (1 << (64 - history_bits)):
        return (words << np.uint64(history_bits)) | histories
    word_ids = np.unique(words, return_inverse=True)[1].astype(np.uint64)
    history_values, history_ids = np.unique(histories, return_inverse=True)
    span = np.uint64(len(history_values))
    return word_ids * span + history_ids.astype(np.uint64)


def _previous_occurrences(keys: np.ndarray) -> np.ndarray:
    """Index of each reference's previous occurrence (-1 on first use)."""
    n = len(keys)
    previous = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return previous
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    previous[order[1:][same]] = order[:-1][same]
    return previous


def _count_prior_greater(values: np.ndarray) -> np.ndarray:
    """``out[i]`` = number of ``j < i`` with ``values[j] > values[i]``.

    Bottom-up merge counting with every level batched into whole-array
    numpy passes.  Blocks are kept individually sorted; prefixing each
    key with its block id makes the concatenation of all left (or right)
    blocks globally sorted, so a single ``searchsorted`` per direction
    answers every block's "how many partner elements are smaller"
    queries at once.  Those per-element ranks both accumulate the
    inversion counts and *are* the merge permutation (an element's
    merged position is its own in-block offset plus its rank among the
    partner block), so no level ever argsorts.
    """
    n = len(values)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    # Dense ranks, ties equal, so composite keys preserve strict order.
    keys = np.unique(values, return_inverse=True)[1].astype(np.int64)
    span = np.int64(keys.max()) + 1
    order = np.arange(n, dtype=np.int64)
    slots = np.arange(n, dtype=np.int64)
    level = 0
    while (1 << level) < n:
        width = 1 << level
        block = slots >> (level + 1)
        is_left = (slots & width) == 0
        composite = block * span + keys
        left_composite = composite[is_left]
        right_composite = composite[~is_left]
        block_count = int(block[-1]) + 1
        left_blocks = block[is_left]
        right_blocks = block[~is_left]
        left_sizes = np.bincount(left_blocks, minlength=block_count)
        left_before = np.concatenate(([0], np.cumsum(left_sizes)[:-1]))
        # Left elements <= each right element, within its own block pair.
        not_greater = (
            np.searchsorted(left_composite, right_composite, side="right")
            - left_before[right_blocks]
        )
        counts[order[~is_left]] += left_sizes[right_blocks] - not_greater
        if (1 << (level + 1)) >= n:
            break  # counts are complete; the last merge would go unused
        # Right elements strictly smaller than each left element (ties
        # keep left first — the merge stays stable).
        right_sizes = np.bincount(right_blocks, minlength=block_count)
        right_before = np.concatenate(([0], np.cumsum(right_sizes)[:-1]))
        smaller = (
            np.searchsorted(right_composite, left_composite, side="left")
            - right_before[left_blocks]
        )
        # An element's merged slot is its current slot shifted by its
        # rank among the partner run (rights also shed their width gap).
        target = np.empty(n, dtype=np.int64)
        target[is_left] = slots[is_left] + smaller
        target[~is_left] = slots[~is_left] - width + not_greater
        merged_keys = np.empty_like(keys)
        merged_keys[target] = keys
        merged_order = np.empty_like(order)
        merged_order[target] = order
        keys = merged_keys
        order = merged_order
        level += 1
    return counts


def last_use_distances(keys: np.ndarray) -> np.ndarray:
    """Last-use (LRU stack) distance of every reference; -1 on first use.

    ``out[i]`` counts the *distinct* keys strictly between reference
    ``i`` and the previous occurrence of the same key — exactly what
    :class:`repro.aliasing.distance.LastUseDistanceTracker` computes one
    reference at a time.  The identity used: with ``p`` the previous
    occurrence, the window ``(p, i)`` holds ``i - p - 1`` references, of
    which the duplicates are precisely those ``j`` whose own previous
    occurrence also lies after ``p``; and since ``prev[j] < j`` always,
    ``#{p < j < i: prev[j] > p} == #{j < i: prev[j] > p}``, a pure
    2-D dominance count handled by :func:`_count_prior_greater`.
    """
    keys = np.asarray(keys)
    previous = _previous_occurrences(keys)
    # First encounters can never dominate (prev = -1) and their own
    # distance is discarded, so only re-references enter the count; the
    # subsequence keeps its order, which is all the count depends on.
    repeat = previous >= 0
    duplicates = np.zeros(len(keys), dtype=np.int64)
    duplicates[repeat] = _count_prior_greater(previous[repeat])
    positions = np.arange(len(keys), dtype=np.int64)
    distances = positions - previous - 1 - duplicates
    distances[~repeat] = -1
    return distances


def pair_last_use_distances(trace: Trace, history_bits: int) -> np.ndarray:
    """Distances of the trace's (address, history) pair stream (-1 first).

    Vectorized equivalent of feeding
    :func:`repro.aliasing.three_cs.pair_stream` through a
    :class:`~repro.aliasing.distance.LastUseDistanceTracker`; the
    Figure 11 extrapolation pipeline consumes this.
    """
    words, histories = pair_columns(trace, history_bits)
    return last_use_distances(pair_keys(words, histories, history_bits))


def scheme_indices(
    scheme: str,
    words: np.ndarray,
    histories: np.ndarray,
    index_bits: int,
    history_bits: int,
) -> np.ndarray:
    """Whole-stream table indices under a scheme's index function.

    Mirrors :func:`repro.aliasing.three_cs.pair_index_fn` element by
    element (gshare footnote-1 alignment and history folding included).
    """
    mask = np.uint64((1 << index_bits) - 1)
    if scheme == "bimodal" or history_bits == 0:
        if scheme not in ("bimodal", "gshare", "gselect"):
            raise ValueError(
                f"unknown scheme {scheme!r}; "
                "expected gshare, gselect or bimodal"
            )
        return words & mask
    if scheme == "gshare":
        if index_bits == 0:
            return np.zeros(len(words), dtype=np.uint64)
        pc = words & mask
        if history_bits <= index_bits:
            shifted = histories << np.uint64(index_bits - history_bits)
            return pc ^ (shifted & mask)
        folded = np.zeros_like(histories)
        h = histories & np.uint64((1 << history_bits) - 1)
        shift = np.uint64(index_bits)
        while h.any():
            folded ^= h & mask
            h = h >> shift
        return pc ^ folded
    if scheme == "gselect":
        if history_bits >= index_bits:
            return histories & mask
        address_part = words & np.uint64((1 << (index_bits - history_bits)) - 1)
        history_part = histories & np.uint64((1 << history_bits) - 1)
        return (address_part << np.uint64(history_bits)) | history_part
    raise ValueError(
        f"unknown scheme {scheme!r}; expected gshare, gselect or bimodal"
    )


def _direct_mapped_misses(
    indices: np.ndarray, keys: np.ndarray
) -> Tuple[int, int]:
    """(misses, cold misses) of a tagged direct-mapped table.

    Every access writes its key, so the occupant a reference finds is
    the key of the previous access to the same entry: group by index
    with one stable sort, then a reference misses iff it opens its group
    (cold) or differs from its in-group predecessor.
    """
    n = len(keys)
    if n == 0:
        return 0, 0
    # Stable sorts of small unsigned ints hit numpy's radix path, which
    # is several times faster than comparison sorting the uint64 view.
    if int(indices.max()) < (1 << 16):
        indices = indices.astype(np.uint16)
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    sorted_keys = keys[order]
    opens_group = np.empty(n, dtype=bool)
    opens_group[0] = True
    opens_group[1:] = sorted_indices[1:] != sorted_indices[:-1]
    changed = np.empty(n, dtype=bool)
    changed[0] = True
    changed[1:] = sorted_keys[1:] != sorted_keys[:-1]
    cold = int(opens_group.sum())
    misses = int((opens_group | changed).sum())
    return misses, cold


def _validated_index_bits(entries: int) -> int:
    """Entry count -> index width, with the reference's validation."""
    if entries < 1:
        raise ValueError(f"entry count must be >= 1, got {entries}")
    index_bits = max(0, entries.bit_length() - 1)
    if 1 << index_bits != entries:
        raise ValueError(f"entry count must be a power of two, got {entries}")
    return index_bits


def measure_aliasing_sweep(
    trace: Trace,
    sizes: Sequence[int],
    history_bits: int,
    schemes: Sequence[str] = ("gshare", "gselect"),
) -> Dict[int, Dict[str, AliasingBreakdown]]:
    """3Cs breakdowns for *every* size in a sweep from one trace pass.

    The pair stream, key factorisation and stack distances are computed
    once; each additional size costs two ``searchsorted`` probes (the
    fully-associative counts) plus one argsort per scheme (the
    direct-mapped pass).  Returns ``{entries: {scheme: breakdown}}``,
    bit-identical to calling the reference
    :func:`repro.aliasing.three_cs.measure_aliasing` per size.
    """
    index_bits = {entries: _validated_index_bits(entries) for entries in sizes}
    words, histories = pair_columns(trace, history_bits)
    keys = pair_keys(words, histories, history_bits)
    distances = last_use_distances(keys)
    finite = np.sort(distances[distances >= 0])
    accesses = len(keys)
    compulsory_misses = accesses - len(finite)
    compulsory = compulsory_misses / accesses if accesses else 0.0

    sweep: Dict[int, Dict[str, AliasingBreakdown]] = {}
    for entries in sizes:
        capacity_misses = len(finite) - int(
            np.searchsorted(finite, entries, side="left")
        )
        capacity = capacity_misses / accesses if accesses else 0.0
        per_scheme: Dict[str, AliasingBreakdown] = {}
        for scheme in schemes:
            indices = scheme_indices(
                scheme, words, histories, index_bits[entries], history_bits
            )
            misses, _ = _direct_mapped_misses(indices, keys)
            per_scheme[scheme] = AliasingBreakdown(
                scheme=scheme,
                entries=entries,
                history_bits=history_bits,
                accesses=accesses,
                total=misses / accesses if accesses else 0.0,
                compulsory=compulsory,
                capacity=capacity,
            )
        sweep[entries] = per_scheme
    return sweep


def measure_aliasing_vectorized(
    trace: Trace,
    entries: int,
    history_bits: int,
    schemes: Sequence[str] = ("gshare", "gselect"),
) -> Dict[str, AliasingBreakdown]:
    """Single-size vectorized measurement (one-point sweep)."""
    return measure_aliasing_sweep(trace, [entries], history_bits, schemes)[
        entries
    ]
