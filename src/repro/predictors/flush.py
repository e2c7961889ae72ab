"""Context-switch-aware predictor wrappers.

The paper's motivation rests on multi-process/OS traces where one
predictor serves all address spaces.  A natural question (studied by
Evers et al., the paper's reference [4]) is how much of the damage is
*history pollution* (foreign outcomes in the global register) versus
*table pollution* (foreign substreams occupying entries).

:class:`FlushOnSwitchPredictor` wraps any predictor and detects context
switches from the address-space segment of incoming PCs (user processes
and the kernel live in disjoint segments in the synthetic substrate,
like real virtual-memory layouts).  On a switch it can flush the
global-history register, the tables, or both — isolating the two
pollution channels for the
:mod:`repro.experiments.context_switch_ablation` experiment.
"""

from __future__ import annotations

from repro.predictors.base import BranchPredictor

__all__ = ["FlushOnSwitchPredictor"]


class FlushOnSwitchPredictor(BranchPredictor):
    """Wrap a predictor with flush-on-context-switch behaviour.

    Args:
        inner: the wrapped predictor.
        flush_history: clear the global-history register on a switch
            (only meaningful for global-history schemes).
        flush_tables: clear all counter state on a switch (models
            per-process predictor state with zero warm-up credit —
            a deliberately extreme point).
        segment_shift: PCs are grouped into address spaces by
            ``pc >> segment_shift``.
    """

    state_scalars = ("_segment", "switches")

    def __init__(
        self,
        inner: BranchPredictor,
        flush_history: bool = True,
        flush_tables: bool = False,
        segment_shift: int = 24,
    ):
        self.inner = inner
        self.flush_history = flush_history
        self.flush_tables = flush_tables
        self.segment_shift = segment_shift
        self._segment = None
        self.switches = 0
        self.name = (
            f"{inner.name}+flush"
            f"{'H' if flush_history else ''}"
            f"{'T' if flush_tables else ''}"
        )

    def _observe(self, address: int) -> None:
        segment = address >> self.segment_shift
        if self._segment is not None and segment != self._segment:
            self.switches += 1
            if self.flush_tables:
                history = getattr(self.inner, "history", None)
                value = history.value if history is not None else None
                self.inner.reset()
                if not self.flush_history and history is not None:
                    history.reset(value)
            elif self.flush_history:
                history = getattr(self.inner, "history", None)
                if history is not None:
                    history.reset()
        self._segment = segment

    def predict(self, address: int) -> bool:
        return self.inner.predict(address)

    def train(self, address: int, taken: bool) -> None:
        self.inner.train(address, taken)

    def notify_outcome(self, address: int, taken: bool) -> None:
        self.inner.notify_outcome(address, taken)

    def predict_and_update(self, address: int, taken: bool) -> bool:
        self._observe(address)
        return self.inner.predict_and_update(address, taken)

    def notify_unconditional(self, address: int, taken: bool = True) -> None:
        self._observe(address)
        self.inner.notify_unconditional(address, taken)

    def reset(self) -> None:
        self.inner.reset()
        self._segment = None
        self.switches = 0

    @property
    def storage_bits(self) -> int:
        return self.inner.storage_bits
