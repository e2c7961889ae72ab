"""The (address, history) substream of a trace, as numpy columns.

Each conditional branch references the pair of its word address and
the global history before it (every control transfer shifts the
history, as in the paper's traces).  The Table 2 statistics, the 3Cs
split, the model's last-use distances and the fast tiers' index
streams all read this one stream, and this module is the one place
that forms it: :func:`history_stream` (the register before every
event), :func:`pair_columns` and :func:`pair_keys` (the conditional
events' pairs, one comparable key each), :func:`last_use_distances`
(every reference's LRU stack distance, by an offline merge-counting
pass) and :func:`distance_histogram`.  Histories longer than 63 bits do
not fit the uint64 register and are refused.  The per-reference oracle
is :func:`repro.aliasing.three_cs.pair_stream`.  Only numpy and
:mod:`repro.traces.trace` are imported, so the traces layer reads the
substream without importing the layers above it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.traces.trace import Trace

__all__ = [
    "history_stream",
    "pair_columns",
    "pair_keys",
    "last_use_distances",
    "pair_last_use_distances",
    "distance_histogram",
]

#: history lengths must fit a uint64 shift register
_MAX_HISTORY_BITS = 63


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


def pair_columns(
    trace: Trace, history_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(word addresses, histories) of every conditional branch, as uint64.

    Row ``i`` equals the ``i``-th pair yielded by
    :func:`repro.aliasing.three_cs.pair_stream`: the global history is
    shifted by every control transfer, conditional or not.
    """
    if not 0 <= history_bits <= _MAX_HISTORY_BITS:
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


def distance_histogram(distances: np.ndarray) -> Tuple[List[int], int]:
    """Bucket distances by power of two; returns (buckets, first_count).

    ``distances`` is an integer array with ``-1`` marking first
    encounters, as :func:`last_use_distances` returns it.
    ``buckets[i]`` counts distances ``d`` with ``2^i <= d+1 < 2^(i+1)``
    (so bucket 0 holds d == 0); first encounters are returned separately.
    Used by the capacity-aliasing analyses and the trace-quality report.
    """
    distances = np.asarray(distances, dtype=np.int64)
    first = int((distances < 0).sum())
    finite = distances[distances >= 0]
    if len(finite) == 0:
        return [], first
    # slot = (d + 1).bit_length() - 1, exactly: frexp yields the
    # exponent e with d + 1 = m * 2^e, 0.5 <= m < 1, so e - 1 is the
    # bucket (ints below 2^53 are exact in the float conversion).
    slots = np.frexp((finite + 1).astype(np.float64))[1] - 1
    return np.bincount(slots).tolist(), first
