"""Result records produced by the simulation engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of running one predictor over one trace.

    ``mispredictions / conditional_branches`` is the misprediction ratio
    every paper figure plots.  ``storage_bits`` carries the predictor's
    hardware budget so results can be ranked at equal cost.

    ``engine`` records which simulation tier produced the result
    (``generic``/``vectorized``/``scan``/``native``) — pure
    provenance, excluded from equality so the bit-identity contract
    between tiers (``result_a == result_b``) stays a content check.
    """

    predictor: str
    trace: str
    conditional_branches: int
    mispredictions: int
    storage_bits: int
    history_bits: Optional[int] = None
    detail: Dict[str, float] = field(default_factory=dict)
    engine: Optional[str] = field(default=None, compare=False)

    @property
    def misprediction_ratio(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches

    @property
    def accuracy(self) -> float:
        return 1.0 - self.misprediction_ratio

    def __str__(self) -> str:
        return (
            f"{self.predictor} on {self.trace}: "
            f"{self.misprediction_ratio:.4%} misprediction "
            f"({self.mispredictions}/{self.conditional_branches}, "
            f"{self.storage_bits} bits)"
        )
