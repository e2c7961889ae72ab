"""The agree predictor (Sprangle, Chappell, Alsup & Patt, ISCA 1997).

The contemporaneous anti-aliasing design published alongside the skewed
branch predictor: instead of *removing* destructive aliasing, it
*re-encodes* predictions so that aliasing tends to be harmless.  Each
static branch carries a *biasing bit* (here: latched to the branch's
first observed outcome, the paper's simplest policy), and the
gshare-indexed PHT stores whether the branch will AGREE with its bias
rather than its absolute direction.  Because most branches agree with
their bias most of the time, two substreams sharing a PHT entry usually
both want the counter saturated at "agree" — interference becomes
constructive/neutral.

Included so the anti-aliasing design space of 1997 can be compared
head-to-head with gskew (see
:mod:`repro.experiments.antialiasing_shootout`).
"""

from __future__ import annotations

from array import array

from repro.core.bank import PredictorBank
from repro.predictors.base import GlobalHistoryPredictor
from repro.predictors.gshare import gshare_index

__all__ = ["AgreePredictor"]


class AgreePredictor(GlobalHistoryPredictor):
    """gshare-indexed agree PHT over per-branch biasing bits.

    Args:
        index_bits: log2 of the PHT size.
        history_bits: global-history length for the PHT index.
        bias_table_bits: log2 of the biasing-bit table (PC-indexed,
            tag-less, modelling the bits a BTB would hold).  Biasing
            bits are latched on first execution.
        counter_bits: PHT counter width.
    """

    name = "agree"

    def __init__(
        self,
        index_bits: int,
        history_bits: int,
        bias_table_bits: int = None,
        counter_bits: int = 2,
    ):
        super().__init__(history_bits)
        self.index_bits = index_bits
        if bias_table_bits is None:
            bias_table_bits = index_bits
        self.bias_table_bits = bias_table_bits
        self._bias_mask = (1 << bias_table_bits) - 1
        # One latch code per slot: -1 = not yet latched, else the first
        # outcome (0 or 1) -- the int8 codes the fast walks take in place.
        self._bias = array("b", [-1]) * (1 << bias_table_bits)
        history = self.history  # not ``self``: no cycle through the PHT
        self.pht = PredictorBank(
            index_bits,
            lambda address: gshare_index(
                address, history.value, index_bits, history.bits
            ),
            counter_bits,
        )

    def _bias_slot(self, address: int) -> int:
        return (address >> 2) & self._bias_mask

    def bias_bit(self, address: int) -> bool:
        """Current biasing bit for ``address`` (default taken)."""
        # An unlatched slot (-1) defaults to taken, like a latched 1.
        return self._bias[self._bias_slot(address)] != 0

    def predict(self, address: int) -> bool:
        agree = self.pht.predict(address)
        bias = self.bias_bit(address)
        return bias if agree else not bias

    def train(self, address: int, taken: bool) -> None:
        slot = self._bias_slot(address)
        if self._bias[slot] < 0:
            # Latch the biasing bit on first execution; the PHT entry
            # (reset state "agree") is then already correct for it.
            self._bias[slot] = 1 if taken else 0
        self.pht.train(address, taken == self._bias[slot])

    def predict_and_update(self, address: int, taken: bool) -> bool:
        slot = self._bias_slot(address)
        bias = self._bias[slot]
        idx = gshare_index(
            address, self.history.value, self.index_bits, self.history.bits
        )
        counters = self.pht.counters
        agree = counters.prediction(idx)
        # The prediction is made before the outcome is known, so it uses
        # the current bias (default taken if not yet latched).
        effective_bias = bias != 0
        prediction = effective_bias if agree else not effective_bias
        if bias < 0:
            self._bias[slot] = 1 if taken else 0
            effective_bias = taken
        counters.update(idx, taken == effective_bias)
        self.history.push(taken)
        return prediction

    def reset(self) -> None:
        self._bias[:] = array("b", [-1]) * len(self._bias)
        self.pht.reset()
        self.reset_history()

    @property
    def storage_bits(self) -> int:
        """PHT counters plus one biasing bit per bias-table entry."""
        return self.pht.storage_bits + (1 << self.bias_table_bits)
