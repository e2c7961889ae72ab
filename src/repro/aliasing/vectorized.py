"""One-pass vectorized 3Cs aliasing engine.

The reference instruments in :mod:`repro.aliasing.three_cs` walk the
(address, history) pair stream one reference at a time — an
``OrderedDict`` LRU for the fully-associative floor and a Python list of
tags per direct-mapped table — and a Figure-1-style size sweep re-walks
the whole trace once per table size.  This module computes the same
numbers from whole-trace numpy arrays:

1. **pair stream** — the conditional events' word addresses and
   histories, factorised into dense integer keys, come from
   :mod:`repro.traces.pairs` (:func:`pair_columns`, :func:`pair_keys`;
   re-exported here);
2. **stack distances** — the last-use distance of every reference (the
   number of *distinct* pairs since its previous occurrence) comes for
   the whole stream at once from :func:`last_use_distances`, the same
   module's offline merge-counting pass;
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
from repro.traces.pairs import (
    _MAX_HISTORY_BITS,
    last_use_distances,
    pair_columns,
    pair_keys,
    pair_last_use_distances,
)
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
