"""The branch-predictor interface shared by every scheme in the suite.

A predictor consumes a stream of branch events.  For each *conditional*
branch the simulation engine calls :meth:`BranchPredictor.predict_and_update`
with the branch address and its actual outcome; the return value is the
prediction that was made *before* learning the outcome.  Unconditional
branches (which carry no prediction but do shift global history, per the
paper's methodology) are fed through
:meth:`BranchPredictor.notify_unconditional`.

Storage accounting: every predictor reports its hardware cost in bits via
:attr:`BranchPredictor.storage_bits`.  The paper's headline claims are
phrased in storage terms ("same accuracy with half the storage"), so the
experiments rank configurations by this number, counting counter bits and
— for the tagged fully-associative scheme — tag bits as well.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from repro.core.history import GlobalHistory

__all__ = ["BranchPredictor", "GlobalHistoryPredictor"]


class BranchPredictor(abc.ABC):
    """Abstract base class for all branch predictors."""

    #: human-readable scheme name, overridden by subclasses
    name: str = "abstract"

    #: The spec string :func:`repro.sim.config.make_predictor` built this
    #: predictor from (None when constructed directly).  State snapshots
    #: carry it, and restore only into a predictor of the same spec.
    spec: Optional[str] = None

    #: Scalar attributes that are state (statistics a run updates), not
    #: configuration: :meth:`repro.sim.state.PredictorState.restore`
    #: writes these, and refuses a snapshot whose other scalars differ
    #: from the target's.
    state_scalars: Tuple[str, ...] = ()

    @abc.abstractmethod
    def predict(self, address: int) -> bool:
        """Predicted direction for the branch at ``address``.

        Must not mutate any predictor state.
        """

    @abc.abstractmethod
    def train(self, address: int, taken: bool) -> None:
        """Update predictor tables with the resolved outcome.

        ``train`` must *not* shift branch history; history maintenance is
        factored out so that :meth:`predict_and_update` can keep the
        prediction and the training consistent with the same history
        value.
        """

    def notify_outcome(self, address: int, taken: bool) -> None:
        """Shift the resolved direction into whatever history this scheme
        keeps.  Default: no history."""

    def predict_and_update(self, address: int, taken: bool) -> bool:
        """Predict, then train on the outcome; returns the prediction.

        This is the canonical per-conditional-branch step used by the
        simulation engine.
        """
        prediction = self.predict(address)
        self.train(address, taken)
        self.notify_outcome(address, taken)
        return prediction

    def notify_unconditional(self, address: int, taken: bool = True) -> None:
        """Record an unconditional control transfer.

        Unconditional branches are not predicted, but the paper includes
        them in the global-history bits; schemes keeping history override
        :meth:`notify_outcome` and get this behaviour for free.
        """
        self.notify_outcome(address, taken)

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the predictor to its power-on state."""

    @property
    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total hardware budget in bits (counters + tags + histories)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ({self.storage_bits} bits)>"


class GlobalHistoryPredictor(BranchPredictor):
    """Base for schemes conditioned on a global-history register."""

    def __init__(self, history_bits: int):
        self.history = GlobalHistory(history_bits)

    @property
    def history_bits(self) -> int:
        return self.history.bits

    def notify_outcome(self, address: int, taken: bool) -> None:
        self.history.push(taken)

    def reset_history(self) -> None:
        """Clear the global-history register only."""
        self.history.reset()
