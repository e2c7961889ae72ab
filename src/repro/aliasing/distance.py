"""Last-use-distance measurement over (address, history) reference streams.

The paper's analytical model (section 5.2) is driven by the *last-use
distance* ``D`` of each dynamic reference: the number of **distinct**
(address, history) pairs encountered since the previous occurrence of the
same pair.  This is the classical LRU stack distance computed over pairs.

A naive computation is O(T^2); :class:`LastUseDistanceTracker` uses a
Fenwick (binary-indexed) tree over reference timestamps, marking each
pair's latest occurrence with a 1, which yields O(log T) per reference:
``D`` = number of marked positions strictly after the pair's previous
timestamp.

The same distances also drive the fully-associative-LRU decomposition:
a reference hits an N-entry LRU table iff ``D < N``, which is how
:mod:`repro.aliasing.three_cs` can derive capacity-aliasing curves for
*all* table sizes from a single trace pass.

For whole-trace work the streaming tracker is superseded by the offline
numpy engine (:func:`repro.traces.pairs.last_use_distances`), which
produces the identical distance profile an order of magnitude faster;
:func:`distance_histogram` (re-exported from :mod:`repro.traces.pairs`)
buckets its ``-1``-marked integer arrays without a Python-level loop.
The tracker stays as the per-reference oracle.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.traces.pairs import distance_histogram

__all__ = ["FenwickTree", "LastUseDistanceTracker", "distance_histogram"]


class FenwickTree:
    """A binary-indexed tree over ``size`` positions (1-based internally)."""

    __slots__ = ("size", "_tree", "total")

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self._tree = [0] * (size + 1)
        self.total = 0

    def add(self, position: int, delta: int = 1) -> None:
        """Add ``delta`` at 0-based ``position``."""
        if not 0 <= position < self.size:
            raise IndexError(
                f"position {position} out of range [0, {self.size})"
            )
        self.total += delta
        i = position + 1
        tree = self._tree
        while i <= self.size:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, position: int) -> int:
        """Sum over 0-based positions ``[0, position]``."""
        if position < 0:
            return 0
        if position >= self.size:
            return self.total
        i = position + 1
        tree = self._tree
        acc = 0
        while i > 0:
            acc += tree[i]
            i -= i & (-i)
        return acc

    def suffix_count(self, position: int) -> int:
        """Sum over 0-based positions strictly greater than ``position``."""
        return self.total - self.prefix_sum(position)


class LastUseDistanceTracker:
    """Streaming last-use-distance computation over hashable references.

    >>> t = LastUseDistanceTracker(capacity=8)
    >>> [t.reference(x) for x in ["a", "b", "a", "a", "b"]]
    [None, None, 1, 0, 1]
    """

    def __init__(self, capacity: int):
        """``capacity``: upper bound on the number of references fed in."""
        self._tree = FenwickTree(capacity)
        self._last_seen: Dict[Hashable, int] = {}
        self._clock = 0

    def reference(self, key: Hashable) -> Optional[int]:
        """Record one dynamic reference; return its last-use distance.

        Returns ``None`` for a first encounter (infinite distance — the
        analytical model substitutes aliasing probability 1 for these).
        """
        clock = self._clock
        if clock >= self._tree.size:
            raise OverflowError(
                "tracker capacity exhausted; construct with a larger bound"
            )
        previous = self._last_seen.get(key)
        if previous is None:
            distance = None
        else:
            distance = self._tree.suffix_count(previous)
            self._tree.add(previous, -1)
        self._tree.add(clock, 1)
        self._last_seen[key] = clock
        self._clock = clock + 1
        return distance

    @property
    def distinct_keys(self) -> int:
        return len(self._last_seen)

    @property
    def references(self) -> int:
        return self._clock
