"""The bi-mode predictor (Lee, Chen & Mudge, MICRO 1997).

The third member of the 1997 anti-aliasing trio (with gskew and agree).
Branches are dynamically sorted into a taken-biased and a not-taken-
biased population by a PC-indexed *choice* table; each population gets
its own gshare-indexed *direction* table.  Because each direction table
mostly holds branches of one bias, the substreams that alias within it
tend to want the same counter direction — destructive interference
turns neutral, without tags and without redundancy.

Update rule (per the original paper):

- only the *selected* direction table is updated;
- the choice table is updated with the outcome, EXCEPT when the choice
  turned out "wrong" but the selected direction table still predicted
  correctly (the branch is serviced fine where it is — don't migrate).
"""

from __future__ import annotations

from repro.core.bank import PredictorBank
from repro.core.counters import CounterArray
from repro.predictors.base import GlobalHistoryPredictor
from repro.predictors.gshare import gshare_index

__all__ = ["BiModePredictor"]


class BiModePredictor(GlobalHistoryPredictor):
    """Choice table + taken/not-taken direction tables.

    Args:
        direction_index_bits: log2 of each direction table's size.
        history_bits: global-history length for the direction index.
        choice_index_bits: log2 of the choice table (defaults to the
            direction table size).
        counter_bits: counter width for all three tables.
    """

    name = "bimode"

    def __init__(
        self,
        direction_index_bits: int,
        history_bits: int,
        choice_index_bits: int = None,
        counter_bits: int = 2,
    ):
        super().__init__(history_bits)
        self.direction_index_bits = direction_index_bits
        if choice_index_bits is None:
            choice_index_bits = direction_index_bits
        self.choice_index_bits = choice_index_bits
        self._choice_mask = (1 << choice_index_bits) - 1
        self.choice = CounterArray(1 << choice_index_bits, bits=counter_bits)

        history = self.history  # not ``self``: no cycle through the tables

        def direction_index(address: int) -> int:
            return gshare_index(
                address, history.value, direction_index_bits, history.bits
            )

        self.taken_table = PredictorBank(
            direction_index_bits, direction_index, counter_bits
        )
        self.not_taken_table = PredictorBank(
            direction_index_bits, direction_index, counter_bits
        )
        # Pre-bias the direction tables toward their population.
        self.taken_table.counters.reset(
            initial=self.taken_table.counters.threshold
        )
        self.not_taken_table.counters.reset(
            initial=max(0, self.not_taken_table.counters.threshold - 1)
        )

    def _choice_index(self, address: int) -> int:
        return (address >> 2) & self._choice_mask

    def _selected(self, address: int) -> PredictorBank:
        if self.choice.prediction(self._choice_index(address)):
            return self.taken_table
        return self.not_taken_table

    def predict(self, address: int) -> bool:
        return self._selected(address).predict(address)

    def train(self, address: int, taken: bool) -> None:
        choice_index = self._choice_index(address)
        chose_taken = self.choice.prediction(choice_index)
        selected = self.taken_table if chose_taken else self.not_taken_table
        direction_prediction = selected.predict(address)
        selected.train(address, taken)
        # Choice update exception: a "wrong" choice whose direction
        # table nevertheless predicted correctly is left alone.
        if not (chose_taken != taken and direction_prediction == taken):
            self.choice.update(choice_index, taken)

    def predict_and_update(self, address: int, taken: bool) -> bool:
        choice_index = self._choice_index(address)
        chose_taken = self.choice.prediction(choice_index)
        selected = self.taken_table if chose_taken else self.not_taken_table
        direction_index = selected.index_fn(address)
        prediction = selected.counters.prediction(direction_index)
        selected.counters.update(direction_index, taken)
        if not (chose_taken != taken and prediction == taken):
            self.choice.update(choice_index, taken)
        self.history.push(taken)
        return prediction

    def reset(self) -> None:
        self.choice.reset()
        self.taken_table.reset()
        self.not_taken_table.reset()
        self.taken_table.counters.reset(
            initial=self.taken_table.counters.threshold
        )
        self.not_taken_table.counters.reset(
            initial=max(0, self.not_taken_table.counters.threshold - 1)
        )
        self.reset_history()

    @property
    def storage_bits(self) -> int:
        return (
            len(self.choice) * self.choice.bits
            + self.taken_table.storage_bits
            + self.not_taken_table.storage_bits
        )
