"""The three-Cs decomposition of branch aliasing (paper sections 2-3).

Mirrors Hill's cache-miss taxonomy:

- **compulsory** aliasing — first encounter of an (address, history) pair;
- **capacity** aliasing — misses a fully-associative LRU table of the same
  entry count would also suffer (working set too large);
- **conflict** aliasing — everything else: pairs contending for an entry
  under the scheme's index function while an associative table of equal
  size would have kept both.

:func:`measure_aliasing` runs the paper's instruments — direct-mapped
tagged tables under the gshare and gselect index functions, and a
fully-associative LRU tag store — over a trace in a single pass and
returns the decomposition (the data behind Figures 1 and 2).  It
dispatches to the one-pass engine in :mod:`repro.aliasing.vectorized`
by default (bit-identical, one C or numpy pass over the trace); the
per-reference tables remain available as
:func:`measure_aliasing_reference` and serve as the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from repro.aliasing.lru_table import FullyAssociativeLRUTable
from repro.aliasing.tagged_table import TaggedDirectMappedTable
from repro.predictors.gshare import gshare_index
from repro.predictors.gselect import gselect_index
from repro.traces.trace import Trace

__all__ = [
    "AliasingBreakdown",
    "pair_index_fn",
    "measure_aliasing",
    "measure_aliasing_reference",
    "pair_stream",
]


@dataclass(frozen=True)
class AliasingBreakdown:
    """Aliasing ratios for one (scheme, entries, history) configuration.

    All ratios are relative to the dynamic conditional-branch count.
    ``total`` is the direct-mapped aliasing ratio; ``conflict`` is
    ``total - (compulsory + capacity)`` (clamped at 0: with pathological
    index functions a DM table can, rarely, beat LRU on a few references).
    """

    scheme: str
    entries: int
    history_bits: int
    accesses: int
    total: float
    compulsory: float
    capacity: float

    @property
    def conflict(self) -> float:
        return max(0.0, self.total - self.compulsory - self.capacity)

    @property
    def fully_associative(self) -> float:
        """Miss ratio of the equal-sized fully-associative LRU table."""
        return self.compulsory + self.capacity


def pair_index_fn(
    scheme: str, index_bits: int, history_bits: int
) -> Callable[[Tuple[int, int]], int]:
    """Index function over (word-address, history) pairs for ``scheme``.

    Supported schemes: ``gshare``, ``gselect``, ``bimodal`` (address
    truncation; history ignored).
    """
    if scheme == "gshare":
        return lambda key: gshare_index(
            key[0] << 2, key[1], index_bits, history_bits
        )
    if scheme == "gselect":
        return lambda key: gselect_index(
            key[0] << 2, key[1], index_bits, history_bits
        )
    if scheme == "bimodal":
        mask = (1 << index_bits) - 1
        return lambda key: key[0] & mask
    raise ValueError(
        f"unknown scheme {scheme!r}; expected gshare, gselect or bimodal"
    )


def pair_stream(trace: Trace, history_bits: int):
    """Yield the (word-address, history) pair of each conditional branch.

    Global history is shifted by *every* control transfer, conditional or
    not, matching the paper's trace methodology.
    """
    mask = (1 << history_bits) - 1 if history_bits else 0
    history = 0
    for pc, taken, conditional in trace.sim_events():
        if conditional:
            yield (pc >> 2, history)
        history = ((history << 1) | taken) & mask


def measure_aliasing(
    trace: Trace,
    entries: int,
    history_bits: int,
    schemes: Sequence[str] = ("gshare", "gselect"),
    engine: str = "auto",
) -> Dict[str, AliasingBreakdown]:
    """One-pass 3Cs measurement for several index schemes at one size.

    Returns a mapping from scheme name to its breakdown; the shared
    fully-associative reference appears inside every breakdown (it does
    not depend on the index function).

    ``engine`` selects the implementation: ``"vectorized"`` runs the
    one-pass engine (:mod:`repro.aliasing.vectorized`), ``"reference"`` the
    per-reference tables, and ``"auto"`` (the default) the vectorized
    engine whenever it supports the history length.  Both produce
    bit-identical breakdowns; sweeps over many sizes should call
    :func:`repro.aliasing.vectorized.measure_aliasing_sweep` directly so
    the stack-distance pass is shared across sizes.
    """
    if engine not in ("auto", "vectorized", "reference"):
        raise ValueError(
            f"unknown engine {engine!r}; "
            "expected auto, vectorized or reference"
        )
    if engine != "reference":
        from repro.aliasing import vectorized

        if vectorized.supports(history_bits):
            return vectorized.measure_aliasing_vectorized(
                trace, entries, history_bits, schemes
            )
        if engine == "vectorized":
            raise ValueError(
                f"vectorized engine does not support "
                f"history_bits={history_bits}"
            )
    return measure_aliasing_reference(trace, entries, history_bits, schemes)


def measure_aliasing_reference(
    trace: Trace,
    entries: int,
    history_bits: int,
    schemes: Sequence[str] = ("gshare", "gselect"),
) -> Dict[str, AliasingBreakdown]:
    """The per-reference implementation (semantic baseline).

    Walks the pair stream once through a
    :class:`~repro.aliasing.tagged_table.TaggedDirectMappedTable` per
    scheme plus one shared
    :class:`~repro.aliasing.lru_table.FullyAssociativeLRUTable`.  Kept
    as the equivalence oracle for the vectorized engine.
    """
    if entries < 1:
        raise ValueError(f"entry count must be >= 1, got {entries}")
    index_bits = max(0, entries.bit_length() - 1)
    if 1 << index_bits != entries:
        raise ValueError(f"entry count must be a power of two, got {entries}")

    tables = {
        scheme: TaggedDirectMappedTable(
            entries, pair_index_fn(scheme, index_bits, history_bits)
        )
        for scheme in schemes
    }
    reference = FullyAssociativeLRUTable(entries)

    for pair in pair_stream(trace, history_bits):
        for table in tables.values():
            table.access(pair)
        reference.access(pair)

    accesses = reference.accesses
    compulsory = (
        reference.compulsory_misses / accesses if accesses else 0.0
    )
    capacity = reference.capacity_misses / accesses if accesses else 0.0
    return {
        scheme: AliasingBreakdown(
            scheme=scheme,
            entries=entries,
            history_bits=history_bits,
            accesses=accesses,
            total=table.miss_ratio,
            compulsory=compulsory,
            capacity=capacity,
        )
        for scheme, table in tables.items()
    }
