"""Path-based branch correlation (Nair, MICRO 1995 — paper reference [9]).

The paper's introduction lists "bits from target addresses of previous
branches" as one of the ways a branch substream can be defined.  A
path-history predictor conditions on *which branches were executed*
(their addresses) rather than on their directions — the path
disambiguates converging control flow that direction history cannot.

:class:`PathHistoryPredictor` keeps a register of the low bits of the
last ``depth`` branch addresses, hashes it with the current PC into a
tag-less counter table, and predicts from the counter.
:class:`SkewedPathPredictor` applies the paper's skewing construction to
the same information vector, demonstrating that the gskew technique is
substream-definition-agnostic (conclusion: "the same technique could be
applied ... including per-address history schemes" — and, as here, path
schemes).
"""

from __future__ import annotations

from typing import List

from repro.core.bank import PredictorBank
from repro.core.skew import skew_function_family
from repro.core.update import UpdatePolicy
from repro.core.vote import majority
from repro.predictors.base import BranchPredictor

__all__ = ["PathHistory", "PathHistoryPredictor", "SkewedPathPredictor"]


class PathHistory:
    """Register of low address bits of the last ``depth`` branches."""

    __slots__ = ("depth", "bits_per_branch", "value", "_mask")

    def __init__(self, depth: int, bits_per_branch: int = 4):
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if bits_per_branch < 1:
            raise ValueError(
                f"bits_per_branch must be >= 1, got {bits_per_branch}"
            )
        self.depth = depth
        self.bits_per_branch = bits_per_branch
        total = depth * bits_per_branch
        self._mask = (1 << total) - 1 if total else 0
        self.value = 0

    def push(self, address: int) -> None:
        """Shift the executed branch's address bits into the register."""
        if self.depth == 0:
            return
        chunk = (address >> 2) & ((1 << self.bits_per_branch) - 1)
        self.value = ((self.value << self.bits_per_branch) | chunk) & self._mask

    def reset(self) -> None:
        """Clear the path register."""
        self.value = 0

    @property
    def width(self) -> int:
        return self.depth * self.bits_per_branch

    @property
    def bits(self) -> int:
        """The register's width, named as :class:`~repro.core.history.
        GlobalHistory` names it (snapshots check it on restore)."""
        return self.width


class PathHistoryPredictor(BranchPredictor):
    """Single-bank path-correlated predictor.

    Index = XOR-fold of (path register, PC low bits) into the table.

    Args:
        index_bits: log2 of the counter-table size.
        depth: number of preceding branch addresses in the path.
        bits_per_branch: address bits recorded per path element.
        counter_bits: saturating-counter width.
    """

    name = "path"

    def __init__(
        self,
        index_bits: int,
        depth: int = 4,
        bits_per_branch: int = 4,
        counter_bits: int = 2,
    ):
        self.index_bits = index_bits
        self.path = PathHistory(depth, bits_per_branch)
        mask = (1 << index_bits) - 1
        path = self.path  # not ``self``: no cycle through the bank

        def index(address: int) -> int:
            folded = (address >> 2) & mask
            if index_bits == 0:  # one entry; the fold below would not end
                return folded
            value = path.value
            while value:
                folded ^= value & mask
                value >>= index_bits
            return folded

        self.bank = PredictorBank(index_bits, index, counter_bits)

    def predict(self, address: int) -> bool:
        return self.bank.predict(address)

    def train(self, address: int, taken: bool) -> None:
        self.bank.train(address, taken)

    def notify_outcome(self, address: int, taken: bool) -> None:
        # Path history records executed branches regardless of direction.
        self.path.push(address)

    def predict_and_update(self, address: int, taken: bool) -> bool:
        idx = self.bank.index_fn(address)
        counters = self.bank.counters
        prediction = counters.prediction(idx)
        counters.update(idx, taken)
        self.path.push(address)
        return prediction

    def reset(self) -> None:
        self.bank.reset()
        self.path.reset()

    @property
    def storage_bits(self) -> int:
        return self.bank.storage_bits + self.path.width


class SkewedPathPredictor(BranchPredictor):
    """3-bank skewed predictor over the (PC, path) information vector."""

    name = "skewed-path"

    def __init__(
        self,
        bank_index_bits: int,
        depth: int = 4,
        bits_per_branch: int = 4,
        counter_bits: int = 2,
        update_policy: "UpdatePolicy | str" = UpdatePolicy.PARTIAL,
    ):
        self.bank_index_bits = bank_index_bits
        self.path = PathHistory(depth, bits_per_branch)
        self.update_policy = UpdatePolicy.parse(update_policy)
        functions = skew_function_family(bank_index_bits, 3)
        self.banks: List[PredictorBank] = [
            PredictorBank(bank_index_bits, fn, counter_bits)
            for fn in functions
        ]

    def _vector(self, address: int) -> int:
        return ((address >> 2) << self.path.width) | self.path.value

    def predict(self, address: int) -> bool:
        v = self._vector(address)
        return majority([bank.predict(v) for bank in self.banks])

    def train(self, address: int, taken: bool) -> None:
        v = self._vector(address)
        predictions = [bank.predict(v) for bank in self.banks]
        overall = majority(predictions)
        policy = self.update_policy
        if policy is UpdatePolicy.LAZY and overall == taken:
            return
        update_all = policy is not UpdatePolicy.PARTIAL or overall != taken
        for bank, prediction in zip(self.banks, predictions):
            if update_all or prediction == taken:
                bank.train(v, taken)

    def notify_outcome(self, address: int, taken: bool) -> None:
        self.path.push(address)

    def reset(self) -> None:
        for bank in self.banks:
            bank.reset()
        self.path.reset()

    @property
    def storage_bits(self) -> int:
        return sum(bank.storage_bits for bank in self.banks) + self.path.width
