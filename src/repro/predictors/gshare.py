"""The gshare predictor (McFarling), the paper's one-bank baseline.

A single ``2^n``-entry tag-less table of saturating counters, indexed by
the XOR of low-order branch-address bits and the global history.

Footnote 1 of the paper fixes the alignment convention: when the history
is *shorter* than the index, the history bits are XORed against the
**higher-order** end of the low-order address-bit field.  When the history
is longer than the index, it is XOR-folded down to ``n`` bits first (the
original gshare report only considers ``k <= n``; folding is the standard
generalisation and keeps every history bit influent).
"""

from __future__ import annotations

from repro.core.bank import PredictorBank
from repro.predictors.base import GlobalHistoryPredictor

__all__ = ["GsharePredictor", "gshare_index"]


def gshare_index(
    address: int, history: int, index_bits: int, history_bits: int
) -> int:
    """The gshare hashing function over (address, history).

    Args:
        address: byte address of the branch (word-aligned; the two low
            zero bits are stripped internally).
        history: global-history register value.
        index_bits: ``n``, the table-index width.
        history_bits: ``k``, the history length.
    """
    mask = (1 << index_bits) - 1
    pc = (address >> 2) & mask
    if history_bits == 0 or index_bits == 0:
        # A 1-entry table has a single index; bailing here also keeps the
        # fold loop below well-defined (its shift step is index_bits).
        return pc
    if history_bits <= index_bits:
        # Footnote 1: align history with the high-order end of the index.
        return pc ^ ((history << (index_bits - history_bits)) & mask)
    # Fold an over-long history into n bits, n at a time.
    folded = 0
    h = history & ((1 << history_bits) - 1)
    while h:
        folded ^= h & mask
        h >>= index_bits
    return pc ^ folded


class GsharePredictor(GlobalHistoryPredictor):
    """Single-bank gshare with ``2^index_bits`` counters."""

    name = "gshare"

    def __init__(
        self,
        index_bits: int,
        history_bits: int,
        counter_bits: int = 2,
    ):
        super().__init__(history_bits)
        self.index_bits = index_bits
        self.counter_bits = counter_bits
        # The bank's index function closes over this predictor's history
        # register so prediction and training see the same index — over
        # the register, not the predictor, so no reference cycle keeps
        # the tables alive once the predictor is dropped.
        history = self.history
        self.bank = PredictorBank(
            index_bits,
            lambda address: gshare_index(
                address, history.value, index_bits, history.bits
            ),
            counter_bits,
        )

    def index(self, address: int) -> int:
        """Table entry currently selected for ``address``."""
        return gshare_index(
            address, self.history.value, self.index_bits, self.history.bits
        )

    def predict(self, address: int) -> bool:
        return self.bank.counters.prediction(self.index(address))

    def train(self, address: int, taken: bool) -> None:
        self.bank.counters.update(self.index(address), taken)

    def predict_and_update(self, address: int, taken: bool) -> bool:
        idx = gshare_index(
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
