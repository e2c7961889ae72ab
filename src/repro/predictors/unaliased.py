"""The ideal unaliased predictor: an infinite-capacity predictor table.

Every (address, history) pair — every *branch substream* — gets a private
saturating counter, so no aliasing of any kind occurs.  This is the
reference scheme of Table 2: it isolates the *intrinsic* predictability of
each workload at a given history length from all table-capacity effects.

Accounting follows the paper exactly: "when an (address, history) pair is
encountered for the first time, we do not count it as a misprediction".
First encounters allocate a counter initialised weakly toward the observed
outcome, and :meth:`predict_and_update` reports the actual outcome as the
prediction so that generic misprediction counting never charges them.
The number of first encounters *is* recorded — divided by the dynamic
branch count it is the compulsory-aliasing ratio of Table 2.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.core.counters import counter_init_value
from repro.predictors.base import GlobalHistoryPredictor

__all__ = ["UnaliasedPredictor"]


class UnaliasedPredictor(GlobalHistoryPredictor):
    """Infinite (dict-backed) per-substream predictor table."""

    name = "unaliased"
    state_scalars = ("first_encounters", "dynamic_branches")

    def __init__(self, history_bits: int, counter_bits: int = 2):
        super().__init__(history_bits)
        self.counter_bits = counter_bits
        self._max = (1 << counter_bits) - 1
        self._threshold = (self._max + 1) // 2
        self.table: Dict[Tuple[int, int], int] = {}
        self.first_encounters = 0
        self.dynamic_branches = 0
        self._addresses: Set[int] = set()

    def _key(self, address: int) -> Tuple[int, int]:
        return (address >> 2, self.history.value)

    def predict(self, address: int) -> bool:
        value = self.table.get(self._key(address))
        if value is None:
            # Unknowable: the paper excludes these from scoring; default
            # taken for callers that insist on a direction.
            return True
        return value >= self._threshold

    def train(self, address: int, taken: bool) -> None:
        key = self._key(address)
        value = self.table.get(key)
        if value is None:
            self.table[key] = counter_init_value(self.counter_bits, taken)
            return
        if taken:
            if value < self._max:
                self.table[key] = value + 1
        elif value > 0:
            self.table[key] = value - 1

    def predict_and_update(self, address: int, taken: bool) -> bool:
        key = (address >> 2, self.history.value)
        self.dynamic_branches += 1
        self._addresses.add(key[0])
        value = self.table.get(key)
        if value is None:
            # Compulsory (first) encounter: allocate, do not score.
            self.first_encounters += 1
            self.table[key] = counter_init_value(self.counter_bits, taken)
            self.history.push(taken)
            return taken
        prediction = value >= self._threshold
        if taken:
            if value < self._max:
                self.table[key] = value + 1
        elif value > 0:
            self.table[key] = value - 1
        self.history.push(taken)
        return prediction

    def reset(self) -> None:
        self.table.clear()
        self._addresses.clear()
        self.first_encounters = 0
        self.dynamic_branches = 0
        self.reset_history()

    # -- Table 2 statistics ---------------------------------------------

    @property
    def substream_count(self) -> int:
        """Number of distinct (address, history) pairs seen."""
        return len(self.table)

    @property
    def static_branch_count(self) -> int:
        """Number of distinct conditional-branch addresses seen."""
        return len(self._addresses)

    @property
    def substream_ratio(self) -> float:
        """Average number of distinct histories per branch address."""
        if not self._addresses:
            return 0.0
        return len(self.table) / len(self._addresses)

    @property
    def compulsory_aliasing_ratio(self) -> float:
        """First encounters over dynamic conditional branches."""
        if self.dynamic_branches == 0:
            return 0.0
        return self.first_encounters / self.dynamic_branches

    @property
    def storage_bits(self) -> int:
        """Unbounded by design; reports current allocation for interest."""
        return len(self.table) * self.counter_bits
