"""2Bc-gskew — the hybrid the gskew lineage actually shipped (Alpha EV8).

After this paper, Seznec and Michaud combined the skewed predictor with
a bimodal component and a meta-chooser into *2Bc-gskew* (used, scaled
up, as the Alpha EV8 branch predictor).  The design resolves the
remaining weakness the paper's section 6 wrestles with: branches that do
not benefit from global history at all are served by a bimodal table,
and the skewed tables are spent only on the history-correlated ones.

Structure (four tag-less tables):

- **BIM** — a PC-indexed bimodal table;
- **G0, G1** — two skewed banks indexed by ``f1``/``f2`` over the
  (address, history) vector;
- **META** — a PC-indexed chooser between the bimodal prediction and
  the "e-gskew-like" majority vote of (BIM, G0, G1).

Update (partial, following the published 2Bc-gskew rules in spirit):

- when META selects bimodal and it is correct, only BIM is strengthened;
- otherwise the majority side is updated like an e-gskew with partial
  update (mispredicting banks spared when the vote was right, all
  updated on an overall miss);
- META moves toward whichever side was correct when exactly one was.

This module rounds out the historical arc the repository documents:
gskew (section 4) -> e-gskew (section 6) -> 2Bc-gskew (EV8).
"""

from __future__ import annotations

from repro.core.bank import PredictorBank
from repro.core.counters import CounterArray
from repro.core.skew import pack_vector, skew_f1, skew_f2
from repro.core.vote import majority3
from repro.predictors.base import GlobalHistoryPredictor

__all__ = ["BcGskewPredictor"]


class BcGskewPredictor(GlobalHistoryPredictor):
    """The 2Bc-gskew hybrid predictor.

    Args:
        bank_index_bits: log2 of each table's entry count (all four
            tables share one size here, as in the EV8's large
            configuration; per-table sizing is a trivial extension).
        history_bits: global-history length for G0/G1.
        counter_bits: counter width for all tables.
    """

    name = "2bc-gskew"

    def __init__(
        self,
        bank_index_bits: int,
        history_bits: int,
        counter_bits: int = 2,
    ):
        super().__init__(history_bits)
        if bank_index_bits < 1:
            # G0 and G1 skew n-bit halves, as SkewedPredictor's banks do:
            # a one-entry table (n = 0) has nothing to skew.
            raise ValueError(
                f"2Bc-gskew needs bank_index_bits >= 1 (two or more "
                f"entries a table), got {bank_index_bits}"
            )
        self.bank_index_bits = bank_index_bits
        mask = (1 << bank_index_bits) - 1
        history = self.history  # not ``self``: no cycle through the banks

        self.bim = PredictorBank(
            bank_index_bits,
            lambda vector: (vector >> history.bits) & mask,
            counter_bits,
        )
        self.g0 = PredictorBank(
            bank_index_bits,
            lambda vector, _n=bank_index_bits: skew_f1(vector, _n),
            counter_bits,
        )
        self.g1 = PredictorBank(
            bank_index_bits,
            lambda vector, _n=bank_index_bits: skew_f2(vector, _n),
            counter_bits,
        )
        self.meta = CounterArray(1 << bank_index_bits, bits=counter_bits)
        self._meta_mask = mask

    # -- internals --------------------------------------------------------

    def _components(self, address: int):
        vector = pack_vector(address, self.history.value, self.history.bits)
        bim_index = self.bim.index_fn(vector)
        g0_index = self.g0.index_fn(vector)
        g1_index = self.g1.index_fn(vector)
        meta_index = (address >> 2) & self._meta_mask
        return vector, bim_index, g0_index, g1_index, meta_index

    # -- BranchPredictor interface -----------------------------------------

    def predict(self, address: int) -> bool:
        __, bim_i, g0_i, g1_i, meta_i = self._components(address)
        bim = self.bim.counters.prediction(bim_i)
        if not self.meta.prediction(meta_i):
            return bim  # META low half selects the bimodal side
        g0 = self.g0.counters.prediction(g0_i)
        g1 = self.g1.counters.prediction(g1_i)
        return majority3(bim, g0, g1)

    def train(self, address: int, taken: bool) -> None:
        self._step(address, taken)

    def predict_and_update(self, address: int, taken: bool) -> bool:
        prediction = self._step(address, taken)
        self.history.push(taken)
        return prediction

    def notify_outcome(self, address: int, taken: bool) -> None:
        # predict_and_update pushes history itself; the decomposed path
        # (predict/train/notify) pushes here.
        self.history.push(taken)

    def _step(self, address: int, taken: bool) -> bool:
        __, bim_i, g0_i, g1_i, meta_i = self._components(address)
        bim = self.bim.counters.prediction(bim_i)
        g0 = self.g0.counters.prediction(g0_i)
        g1 = self.g1.counters.prediction(g1_i)
        vote = majority3(bim, g0, g1)
        uses_vote = self.meta.prediction(meta_i)
        prediction = vote if uses_vote else bim

        # META learns which side to trust when exactly one side is right.
        if bim != vote:
            if vote == taken:
                self.meta.update(meta_i, True)
            elif bim == taken:
                self.meta.update(meta_i, False)

        if not uses_vote and bim == taken:
            # Bimodal served the branch: keep the skewed tables out of it.
            self.bim.counters.update(bim_i, taken)
            return prediction

        if vote == taken:
            # Partial update of the majority side: strengthen agreeing
            # components only.
            if bim == taken:
                self.bim.counters.update(bim_i, taken)
            if g0 == taken:
                self.g0.counters.update(g0_i, taken)
            if g1 == taken:
                self.g1.counters.update(g1_i, taken)
        else:
            self.bim.counters.update(bim_i, taken)
            self.g0.counters.update(g0_i, taken)
            self.g1.counters.update(g1_i, taken)
        return prediction

    def reset(self) -> None:
        self.bim.reset()
        self.g0.reset()
        self.g1.reset()
        self.meta.reset()
        self.reset_history()

    @property
    def storage_bits(self) -> int:
        return (
            self.bim.storage_bits
            + self.g0.storage_bits
            + self.g1.storage_bits
            + len(self.meta) * self.meta.bits
        )
