"""The gselect predictor (GAs in Yeh/Patt terminology).

A single tag-less table indexed by the *concatenation* of low-order
branch-address bits and the global history: the low ``k`` index bits come
from the history, the remaining ``n - k`` bits from the address.  When the
history is at least as long as the index, only its low ``n`` bits are used
and no address bit survives — the degenerate case the paper points to when
explaining gselect's poor showing at 12 history bits ("only 4 address bits
for a 64K-entry table").
"""

from __future__ import annotations

from repro.core.bank import PredictorBank
from repro.predictors.base import GlobalHistoryPredictor

__all__ = ["GselectPredictor", "gselect_index"]


def gselect_index(
    address: int, history: int, index_bits: int, history_bits: int
) -> int:
    """The gselect concatenation index."""
    mask = (1 << index_bits) - 1
    if history_bits == 0:
        return (address >> 2) & mask
    if history_bits >= index_bits:
        return history & mask
    history_mask = (1 << history_bits) - 1
    address_part = (address >> 2) & ((1 << (index_bits - history_bits)) - 1)
    return (address_part << history_bits) | (history & history_mask)


class GselectPredictor(GlobalHistoryPredictor):
    """Single-bank gselect with ``2^index_bits`` counters."""

    name = "gselect"

    def __init__(
        self,
        index_bits: int,
        history_bits: int,
        counter_bits: int = 2,
    ):
        super().__init__(history_bits)
        self.index_bits = index_bits
        self.counter_bits = counter_bits
        history = self.history  # not ``self``: no cycle through the bank
        self.bank = PredictorBank(
            index_bits,
            lambda address: gselect_index(
                address, history.value, index_bits, history.bits
            ),
            counter_bits,
        )

    def index(self, address: int) -> int:
        """Table entry currently selected for ``address``."""
        return gselect_index(
            address, self.history.value, self.index_bits, self.history.bits
        )

    def predict(self, address: int) -> bool:
        return self.bank.counters.prediction(self.index(address))

    def train(self, address: int, taken: bool) -> None:
        self.bank.counters.update(self.index(address), taken)

    def predict_and_update(self, address: int, taken: bool) -> bool:
        idx = gselect_index(
            address, self.history.value, self.index_bits, self.history.bits
        )
        counters = self.bank.counters
        prediction = counters.prediction(idx)
        counters.update(idx, taken)
        self.history.push(taken)
        return prediction

    def reset(self) -> None:
        self.bank.reset()
        self.reset_history()

    @property
    def entries(self) -> int:
        return self.bank.entries

    @property
    def storage_bits(self) -> int:
        return self.bank.storage_bits
