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
is :func:`repro.aliasing.three_cs.pair_stream`.

:func:`pair_pass` is the whole-trace measurement the instruments share:
each reference's dense pair id and last-use distance, plus the miss
counts of tagged direct-mapped tables under the 3Cs index functions
(:func:`scheme_indices`).  It runs the C kernel's ``repro_pair_pass``
(:func:`repro.sim.native.pair_pass_native`, about 12 bytes per
conditional event) when the kernel built, and otherwise the numpy
merge-counting and sorting here, which give the same arrays.  Only
numpy and :mod:`repro.traces.trace` are imported at module level, so
the traces layer reads the substream without importing the layers above
it; the kernel is imported when a pass runs.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.traces.trace import Trace

__all__ = [
    "PairPass",
    "history_stream",
    "pair_columns",
    "pair_keys",
    "last_use_distances",
    "pair_last_use_distances",
    "pair_pass",
    "scheme_indices",
    "distance_histogram",
]

#: history lengths must fit a uint64 shift register
_MAX_HISTORY_BITS = 63

#: The direct-mapped instruments' index schemes.
_SCHEMES = ("bimodal", "gshare", "gselect")

#: The kernel's reach: uint32 table indices, and ids and positions that
#: fit an int32.
_MAX_KERNEL_INDEX_BITS = 32
_MAX_KERNEL_EVENTS = (1 << 31) - 2


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

    Equivalent to feeding :func:`repro.aliasing.three_cs.pair_stream`
    through a :class:`~repro.aliasing.distance.LastUseDistanceTracker`:
    :attr:`PairPass.distances` of :func:`pair_pass`.
    """
    return pair_pass(trace, history_bits).distances


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
        if scheme not in _SCHEMES:
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


class PairPass(NamedTuple):
    """One pass over a trace's (address, history) pair stream.

    ``ids`` (``uint32``) numbers each conditional event's pair, densely
    and in order of first use; ``distances`` (``int32``) is its
    last-use distance, -1 on first use; ``pairs`` is the number of
    distinct pairs; ``misses`` holds one miss count per requested
    direct-mapped table, in request order.
    """

    ids: np.ndarray
    distances: np.ndarray
    pairs: int
    misses: Tuple[int, ...]


def pair_pass(
    trace: Trace,
    history_bits: int,
    tables: Sequence[Tuple[str, int]] = (),
) -> PairPass:
    """Pair ids, last-use distances and direct-mapped misses in one pass.

    ``tables`` lists ``(scheme, index_bits)`` tagged direct-mapped
    tables (:class:`repro.aliasing.tagged_table.TaggedDirectMappedTable`
    under :func:`scheme_indices`); each access writes its pair's tag, and
    misses when the entry held another.  Runs the C kernel when it built
    and the tables fit its 32-bit indices, and the numpy passes of this
    module otherwise; both return the same arrays.

    Raises:
        ValueError: on a history length outside ``[0, 63]``, an unknown
            scheme or negative index bits.
    """
    if not 0 <= history_bits <= _MAX_HISTORY_BITS:
        raise ValueError(
            f"history bits must be in [0, {_MAX_HISTORY_BITS}], "
            f"got {history_bits}"
        )
    tables = [(scheme, int(bits)) for scheme, bits in tables]
    for scheme, bits in tables:
        if scheme not in _SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected gshare, gselect or bimodal"
            )
        if bits < 0:
            raise ValueError(f"index bits must be >= 0, got {bits}")
    # Imported here: the kernel lives in the sim layer, above this one.
    from repro.sim import native

    if (
        trace.conditional_count <= _MAX_KERNEL_EVENTS
        and all(bits <= _MAX_KERNEL_INDEX_BITS for _, bits in tables)
        and native.native_available()
    ):
        return native.pair_pass_native(trace, history_bits, tables)
    return _pair_pass_numpy(trace, history_bits, tables)


def _first_use_ids(keys: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense ``uint32`` ids of ``keys``, numbered in order of first use,
    and the number of distinct keys."""
    if len(keys) == 0:
        return np.empty(0, dtype=np.uint32), 0
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.uint32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.uint32)
    return rank[inverse], len(first)


def _direct_mapped_misses(indices: np.ndarray, ids: np.ndarray) -> int:
    """Misses of a tagged direct-mapped table.

    Every access writes its pair, so the occupant a reference finds is
    the pair of the previous access to the same entry: group by index
    with one stable sort, then a reference misses iff it opens its group
    (cold) or differs from its in-group predecessor.
    """
    n = len(ids)
    if n == 0:
        return 0
    # Stable sorts of small unsigned ints hit numpy's radix path, which
    # is several times faster than comparison sorting the uint64 view.
    if int(indices.max()) < (1 << 16):
        indices = indices.astype(np.uint16)
    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    sorted_ids = ids[order]
    misses = np.empty(n, dtype=bool)
    misses[0] = True
    misses[1:] = (sorted_indices[1:] != sorted_indices[:-1]) | (
        sorted_ids[1:] != sorted_ids[:-1]
    )
    return int(np.count_nonzero(misses))


def _pair_pass_numpy(
    trace: Trace, history_bits: int, tables: Sequence[Tuple[str, int]]
) -> PairPass:
    """:func:`pair_pass` without the kernel: merge-counted distances and
    one stable sort per table."""
    words, histories = pair_columns(trace, history_bits)
    keys = pair_keys(words, histories, history_bits)
    distances = last_use_distances(keys).astype(np.int32)
    ids, pairs = _first_use_ids(keys)
    del keys
    misses = tuple(
        _direct_mapped_misses(
            scheme_indices(scheme, words, histories, bits, history_bits), ids
        )
        for scheme, bits in tables
    )
    return PairPass(ids, distances, pairs, misses)


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
