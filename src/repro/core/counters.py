"""Saturating-counter state machines and array-backed counter banks.

The predictor tables in the paper store 1-bit or 2-bit saturating
counters.  A ``k``-bit saturating counter counts in ``[0, 2^k - 1]``;
values in the upper half predict *taken*.  Updating moves the counter one
step toward the observed outcome, saturating at the ends.

Two views are provided:

- :class:`SaturatingCounter` — a single counter object, convenient for
  unit tests and for the dict-backed unaliased/associative predictors.
- :class:`CounterArray` — a flat bank of ``2^n`` counters stored one
  byte each in an ``array.array('B')``, used by the tag-less predictor
  banks: the generic interpreter indexes it like a list, and the fast
  walks and state snapshots use its buffer in place.
"""

from __future__ import annotations

from array import array

__all__ = ["SaturatingCounter", "CounterArray", "counter_init_value"]

#: The widest counter a :class:`CounterArray` byte holds.
MAX_ARRAY_COUNTER_BITS = 8


def counter_init_value(bits: int, taken: bool) -> int:
    """Initial counter value *weakly* biased toward ``taken``.

    For a 2-bit counter this is 2 (weakly taken) or 1 (weakly not-taken);
    for a 1-bit counter it is simply the outcome bit.  Used when the
    unaliased and fully-associative predictors allocate an entry on first
    encounter.
    """
    if bits < 1:
        raise ValueError(f"counter width must be >= 1, got {bits}")
    if bits == 1:
        return 1 if taken else 0
    half = 1 << (bits - 1)
    return half if taken else half - 1


class SaturatingCounter:
    """A ``bits``-wide saturating up/down counter.

    >>> c = SaturatingCounter(bits=2, value=1)
    >>> c.prediction
    False
    >>> c.update(taken=True); c.value
    2
    >>> c.prediction
    True
    """

    __slots__ = ("bits", "value", "_max")

    def __init__(self, bits: int = 2, value: int = None):
        if bits < 1:
            raise ValueError(f"counter width must be >= 1, got {bits}")
        self.bits = bits
        self._max = (1 << bits) - 1
        if value is None:
            # Default to the weakly-taken initial state, the conventional
            # reset state for 2-bit predictors.
            value = 1 << (bits - 1)
        if not 0 <= value <= self._max:
            raise ValueError(
                f"value {value} out of range for {bits}-bit counter"
            )
        self.value = value

    @property
    def prediction(self) -> bool:
        """Predicted direction: taken iff the counter is in its upper half."""
        return self.value >= (self._max + 1) // 2

    @property
    def is_saturated(self) -> bool:
        """True when the counter sits at either extreme."""
        return self.value == 0 or self.value == self._max

    def update(self, taken: bool) -> None:
        """Move one step toward the outcome, saturating at the ends."""
        if taken:
            if self.value < self._max:
                self.value += 1
        elif self.value > 0:
            self.value -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SaturatingCounter(bits={self.bits}, value={self.value}, "
            f"prediction={'T' if self.prediction else 'N'})"
        )


class CounterArray:
    """A flat bank of ``size`` saturating counters, 1 to 8 bits wide.

    :attr:`values` is an ``array.array('B')``, one byte per counter, and
    stays the same object for the bank's life: :meth:`reset`, the fast
    walks (through zero-copy ``numpy`` views) and
    :meth:`repro.sim.state.PredictorState.restore` all write into it in
    place.  The hot methods (:meth:`prediction`, :meth:`update`) index
    it directly; simulation engines may too, so it is part of the
    performance-oriented API surface.
    """

    __slots__ = ("bits", "size", "values", "_max", "_threshold")

    def __init__(self, size: int, bits: int = 2, initial: int = None):
        if size < 1:
            raise ValueError(f"counter array size must be >= 1, got {size}")
        if not 1 <= bits <= MAX_ARRAY_COUNTER_BITS:
            raise ValueError(
                f"counter width must be in [1, {MAX_ARRAY_COUNTER_BITS}], "
                f"got {bits}"
            )
        self.bits = bits
        self.size = size
        self._max = (1 << bits) - 1
        self._threshold = (self._max + 1) // 2
        if initial is None:
            initial = self._threshold  # weakly taken
        if not 0 <= initial <= self._max:
            raise ValueError(
                f"initial value {initial} out of range for {bits}-bit counter"
            )
        self.values = array("B", [initial]) * size

    @property
    def threshold(self) -> int:
        """Smallest counter value that predicts taken."""
        return self._threshold

    @property
    def max_value(self) -> int:
        """Largest representable counter value."""
        return self._max

    def prediction(self, index: int) -> bool:
        """Predicted direction of entry ``index``."""
        return self.values[index] >= self._threshold

    def update(self, index: int, taken: bool) -> None:
        """Saturating update of entry ``index`` toward ``taken``."""
        v = self.values[index]
        if taken:
            if v < self._max:
                self.values[index] = v + 1
        elif v > 0:
            self.values[index] = v - 1

    def counter(self, index: int) -> int:
        """Raw counter value of entry ``index``."""
        return self.values[index]

    def reset(self, initial: int = None) -> None:
        """Reset every entry (default: weakly-taken), in place."""
        if initial is None:
            initial = self._threshold
        if not 0 <= initial <= self._max:
            raise ValueError(
                f"initial value {initial} out of range for {self.bits}-bit "
                "counter"
            )
        self.values[:] = array("B", [initial]) * self.size

    def __len__(self) -> int:
        return self.size
