"""Fully-associative, LRU-replaced, tagged predictor table.

This is the reference design of Figure 8: an N-entry table whose entries
are tagged with the full (address, history) pair and replaced LRU, i.e.
the aliasing-free-within-capacity ideal that associativity buys.  Per the
paper's methodology, a lookup that misses is predicted with the static
*always taken* policy, and the missing pair is then installed (evicting
the least-recently-used entry) with its counter initialised weakly toward
the observed outcome.

The point of the structure is the comparison it anchors: a 3N-entry
tag-less gskew with partial update matches an N-entry fully-associative
LRU table — associativity-level conflict immunity without paying for tags.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from repro.core.counters import counter_init_value
from repro.predictors.base import GlobalHistoryPredictor

__all__ = ["FullyAssociativePredictor"]


class FullyAssociativePredictor(GlobalHistoryPredictor):
    """N-entry fully-associative LRU predictor over (address, history)."""

    name = "fa-lru"
    state_scalars = ("hits", "misses")

    def __init__(
        self,
        entries: int,
        history_bits: int,
        counter_bits: int = 2,
        tag_bits: int = 32,
    ):
        super().__init__(history_bits)
        if entries < 1:
            raise ValueError(f"entry count must be >= 1, got {entries}")
        self.entries = entries
        self.counter_bits = counter_bits
        self.tag_bits = tag_bits
        self._max = (1 << counter_bits) - 1
        self._threshold = (self._max + 1) // 2
        # Maps (word-address, history) -> counter value; insertion order
        # doubles as the LRU stack (most recent at the end).
        self.table: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _key(self, address: int) -> Tuple[int, int]:
        return (address >> 2, self.history.value)

    def predict(self, address: int) -> bool:
        value = self.table.get(self._key(address))
        if value is None:
            return True  # static always-taken on miss
        return value >= self._threshold

    def train(self, address: int, taken: bool) -> None:
        key = self._key(address)
        value = self.table.get(key)
        if value is None:
            self._install(key, taken)
            return
        self.table.move_to_end(key)
        self._bump(key, value, taken)

    def _install(self, key: Tuple[int, int], taken: bool) -> None:
        if len(self.table) >= self.entries:
            self.table.popitem(last=False)  # evict LRU
        self.table[key] = counter_init_value(self.counter_bits, taken)

    def _bump(self, key: Tuple[int, int], value: int, taken: bool) -> None:
        if taken:
            if value < self._max:
                self.table[key] = value + 1
        elif value > 0:
            self.table[key] = value - 1

    def predict_and_update(self, address: int, taken: bool) -> bool:
        key = (address >> 2, self.history.value)
        value = self.table.get(key)
        if value is None:
            self.misses += 1
            prediction = True
            self._install(key, taken)
        else:
            self.hits += 1
            prediction = value >= self._threshold
            self.table.move_to_end(key)
            self._bump(key, value, taken)
        self.history.push(taken)
        return prediction

    def reset(self) -> None:
        self.table.clear()
        self.hits = 0
        self.misses = 0
        self.reset_history()

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    @property
    def storage_bits(self) -> int:
        """Counters plus the tag overhead that motivates gskew."""
        return self.entries * (self.counter_bits + self.tag_bits)
