"""One-pass 3Cs aliasing engine.

The reference instruments in :mod:`repro.aliasing.three_cs` walk the
(address, history) pair stream one reference at a time — an
``OrderedDict`` LRU for the fully-associative floor and a Python list of
tags per direct-mapped table — and a Figure-1-style size sweep re-walks
the whole trace once per table size.  This module computes the same
numbers from one whole-trace pass, :func:`repro.traces.pairs.pair_pass`
(the C kernel's ``repro_pair_pass`` where it built, numpy otherwise):

1. **stack distances** — the last-use distance of every reference (the
   number of *distinct* pairs since its previous occurrence);
2. **fully-associative LRU, all sizes at once** — an N-entry LRU table
   hits a reference iff its distance is < N, so the capacity misses of
   *every* table size in a sweep are a count over the one distance
   array; the compulsory misses are the distinct pairs;
3. **direct-mapped tagged tables** — every (scheme, size) table's misses
   are counted in the same pass, the tables indexed as
   :func:`scheme_indices` indexes them.

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

from typing import Dict, Sequence

import numpy as np

from repro.aliasing.three_cs import AliasingBreakdown
from repro.traces.pairs import (
    _MAX_HISTORY_BITS,
    last_use_distances,
    pair_columns,
    pair_keys,
    pair_last_use_distances,
    pair_pass,
    scheme_indices,
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

    One :func:`repro.traces.pairs.pair_pass` yields the stack distances
    and every (scheme, size) table's misses; each size's fully-associative
    counts are then one count over the distances.  Returns
    ``{entries: {scheme: breakdown}}``, bit-identical to calling the
    reference :func:`repro.aliasing.three_cs.measure_aliasing` per size.
    """
    index_bits = {entries: _validated_index_bits(entries) for entries in sizes}
    measured = pair_pass(
        trace,
        history_bits,
        [(scheme, index_bits[entries]) for entries in sizes for scheme in schemes],
    )
    distances = measured.distances
    accesses = len(distances)
    compulsory = measured.pairs / accesses if accesses else 0.0
    misses = iter(measured.misses)

    sweep: Dict[int, Dict[str, AliasingBreakdown]] = {}
    for entries in sizes:
        capacity_misses = int(np.count_nonzero(distances >= entries))
        capacity = capacity_misses / accesses if accesses else 0.0
        sweep[entries] = {
            scheme: AliasingBreakdown(
                scheme=scheme,
                entries=entries,
                history_bits=history_bits,
                accesses=accesses,
                total=next(misses) / accesses if accesses else 0.0,
                compulsory=compulsory,
                capacity=capacity,
            )
            for scheme in schemes
        }
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
