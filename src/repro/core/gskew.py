"""The skewed branch predictor (*gskewed*), the paper's core contribution.

An odd number of tag-less predictor banks is indexed in parallel by
*different and independent* hashing functions of the same information
vector (branch address concatenated with global history).  The final
prediction is a majority vote over the per-bank predictions.  Two vectors
aliased in one bank are, by construction of the skewing family, unlikely
to alias in the others, so a single destructive alias is out-voted.

The update policy (total or partial, section 4.1) is pluggable; the
paper's headline configuration is 3 banks, 2-bit counters, partial update.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.bank import PredictorBank
from repro.core.skew import (
    SkewingFunction,
    pack_vector,
    skew_function_family,
)
from repro.core.update import UpdatePolicy
from repro.core.vote import majority
from repro.predictors.base import GlobalHistoryPredictor

__all__ = ["SkewedPredictor"]


class SkewedPredictor(GlobalHistoryPredictor):
    """The gskewed predictor of section 4.

    Args:
        bank_index_bits: log2 of the per-bank entry count (``n``); each of
            the ``banks`` banks has ``2^n`` entries.
        history_bits: global-history length ``k``.
        banks: odd bank count; the paper evaluates 3 (headline) and 5
            (found marginal).
        counter_bits: per-entry saturating-counter width (1 or 2).
        update_policy: total, partial, or lazy (see
            :class:`~repro.core.update.UpdatePolicy`).
        functions: optional custom skewing-function family (one function
            per bank, each mapping a vector to a bank index).  Defaults to
            the paper's ``f0/f1/f2`` family.
    """

    name = "gskew"

    def __init__(
        self,
        bank_index_bits: int,
        history_bits: int,
        banks: int = 3,
        counter_bits: int = 2,
        update_policy: "UpdatePolicy | str" = UpdatePolicy.PARTIAL,
        functions: Optional[Sequence[SkewingFunction]] = None,
    ):
        super().__init__(history_bits)
        if banks % 2 == 0 or banks < 1:
            raise ValueError(f"bank count must be odd and >= 1, got {banks}")
        if banks > 1 and bank_index_bits < 1:
            # The skewing family shuffles n-bit halves; with n = 0 there
            # is nothing to skew, and no engine can index the banks.
            raise ValueError(
                f"{banks} skewed banks need bank_index_bits >= 1 (two or "
                f"more entries each), got {bank_index_bits}"
            )
        self.update_policy = UpdatePolicy.parse(update_policy)
        #: True when the banks use the paper's canonical skewing family —
        #: the precondition for the vectorized engine's closed-form index
        #: streams (custom families are opaque closures it can't replay).
        self.default_skew_family = functions is None
        if functions is None:
            functions = skew_function_family(bank_index_bits, banks)
        elif len(functions) != banks:
            raise ValueError(
                f"need {banks} skewing functions, got {len(functions)}"
            )
        self.banks: List[PredictorBank] = [
            PredictorBank(bank_index_bits, fn, counter_bits)
            for fn in functions
        ]
        self.bank_index_bits = bank_index_bits
        self.counter_bits = counter_bits

    # -- vector construction -------------------------------------------

    def vector(self, address: int) -> int:
        """Information vector for ``address`` under the current history."""
        return pack_vector(address, self.history.value, self.history.bits)

    # -- BranchPredictor interface --------------------------------------

    def predict(self, address: int) -> bool:
        v = self.vector(address)
        return majority([bank.predict(v) for bank in self.banks])

    def bank_predictions(self, address: int) -> List[bool]:
        """Per-bank predictions (diagnostic; used by aliasing analyses)."""
        v = self.vector(address)
        return [bank.predict(v) for bank in self.banks]

    def train(self, address: int, taken: bool) -> None:
        v = self.vector(address)
        predictions = [bank.predict(v) for bank in self.banks]
        overall = majority(predictions)
        self._train_banks(v, taken, predictions, overall)

    def _train_banks(
        self,
        vector: int,
        taken: bool,
        predictions: Sequence[bool],
        overall: bool,
    ) -> None:
        policy = self.update_policy
        if policy is UpdatePolicy.TOTAL:
            for bank in self.banks:
                bank.train(vector, taken)
        elif policy is UpdatePolicy.PARTIAL:
            if overall == taken:
                # Overall correct: leave mispredicting banks alone so
                # their entries keep serving whatever substream they
                # currently belong to; strengthen the banks that agreed.
                for bank, prediction in zip(self.banks, predictions):
                    if prediction == taken:
                        bank.train(vector, taken)
            else:
                for bank in self.banks:
                    bank.train(vector, taken)
        else:  # UpdatePolicy.LAZY
            if overall != taken:
                for bank in self.banks:
                    bank.train(vector, taken)

    def predict_and_update(self, address: int, taken: bool) -> bool:
        # Fused fast path: one vector computation, one index evaluation
        # per bank, shared between prediction and training.
        v = pack_vector(address, self.history.value, self.history.bits)
        predictions = []
        indices = []
        for bank in self.banks:
            idx = bank.index_fn(v)
            indices.append(idx)
            predictions.append(bank.counters.prediction(idx))
        overall = majority(predictions)

        policy = self.update_policy
        if policy is UpdatePolicy.TOTAL:
            for bank, idx in zip(self.banks, indices):
                bank.counters.update(idx, taken)
        elif policy is UpdatePolicy.PARTIAL:
            if overall == taken:
                for bank, idx, prediction in zip(
                    self.banks, indices, predictions
                ):
                    if prediction == taken:
                        bank.counters.update(idx, taken)
            else:
                for bank, idx in zip(self.banks, indices):
                    bank.counters.update(idx, taken)
        else:  # UpdatePolicy.LAZY
            if overall != taken:
                for bank, idx in zip(self.banks, indices):
                    bank.counters.update(idx, taken)

        self.history.push(taken)
        return overall

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
        self.reset_history()

    @property
    def total_entries(self) -> int:
        """Sum of entries over all banks (the ``3xN`` in ``3x4k-gskewed``)."""
        return sum(bank.entries for bank in self.banks)

    @property
    def storage_bits(self) -> int:
        return sum(bank.storage_bits for bank in self.banks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SkewedPredictor({len(self.banks)}x{self.banks[0].entries}, "
            f"h={self.history.bits}, {self.counter_bits}-bit, "
            f"{self.update_policy.value})"
        )
