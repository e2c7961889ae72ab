"""Per-branch outcome models for the synthetic workload generator.

Each *static* conditional branch in a synthetic program is assigned a
behaviour object that decides its successive outcomes.  The mix of
behaviours determines exactly the trace properties the paper's phenomena
depend on:

- strongly **biased** branches give the bias density ``b`` of the
  analytical model (most real branches are heavily skewed);
- **loop** back-edges produce the (n-1 taken, 1 not-taken) runs that make
  2-bit counters beat 1-bit counters in Table 2;
- **pattern** and **history-correlated** branches reward longer global
  histories, producing the history-length tradeoffs of Figures 7 and 12;
- **Markov** branches model phase behaviour (runs of taken / not-taken).

Behaviours are deterministic functions of their private state, the shared
global history and a seeded RNG stream, so traces are fully reproducible.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List

__all__ = [
    "BranchBehavior",
    "BiasedBehavior",
    "LoopBehavior",
    "PatternBehavior",
    "CorrelatedBehavior",
    "MarkovBehavior",
    "BehaviorMix",
]


class BranchBehavior(abc.ABC):
    """Outcome generator for one static conditional branch."""

    @abc.abstractmethod
    def next_outcome(self, rng: random.Random, global_history: int) -> bool:
        """Produce the next dynamic outcome of this branch."""

    def clone(self) -> "BranchBehavior":
        """Fresh instance with the same parameters and reset state."""
        return self  # stateless behaviours may share themselves


class BiasedBehavior(BranchBehavior):
    """Bernoulli branch taken with fixed probability ``p_taken``."""

    def __init__(self, p_taken: float):
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError(f"p_taken must be in [0, 1], got {p_taken}")
        self.p_taken = p_taken

    def next_outcome(self, rng: random.Random, global_history: int) -> bool:
        return rng.random() < self.p_taken


class LoopBehavior(BranchBehavior):
    """A loop back-edge: taken ``trip_count - 1`` times, then not taken.

    ``jitter`` > 0 re-draws the trip count around the mean after each loop
    exit, modelling data-dependent iteration counts.
    """

    def __init__(self, trip_count: int, jitter: int = 0):
        if trip_count < 1:
            raise ValueError(f"trip_count must be >= 1, got {trip_count}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.trip_count = trip_count
        self.jitter = jitter
        self._remaining = trip_count

    def next_outcome(self, rng: random.Random, global_history: int) -> bool:
        self._remaining -= 1
        if self._remaining > 0:
            return True  # continue looping
        # Loop exit: re-arm for the next activation.
        if self.jitter:
            low = max(1, self.trip_count - self.jitter)
            self._remaining = rng.randint(low, self.trip_count + self.jitter)
        else:
            self._remaining = self.trip_count
        return False

    def clone(self) -> "LoopBehavior":
        return LoopBehavior(self.trip_count, self.jitter)


class PatternBehavior(BranchBehavior):
    """A fixed cyclic outcome pattern (e.g. TTNTTN...)."""

    def __init__(self, pattern: List[bool]):
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = list(pattern)
        self._position = 0

    def next_outcome(self, rng: random.Random, global_history: int) -> bool:
        outcome = self.pattern[self._position]
        self._position = (self._position + 1) % len(self.pattern)
        return outcome

    def clone(self) -> "PatternBehavior":
        return PatternBehavior(self.pattern)


class CorrelatedBehavior(BranchBehavior):
    """Outcome is a fixed boolean function of recent global-history bits.

    A random truth table over ``history_bits`` bits is drawn at
    construction (from the behaviour's own seed, not the trace RNG, so
    the *function* is a static program property).  With probability
    ``noise`` the outcome is flipped, bounding the achievable accuracy.

    A predictor whose history window covers ``history_bits`` bits can
    learn this branch almost perfectly; shorter windows see a biased coin.
    The table never changes after construction, so the behaviour is
    stateless and :meth:`clone` shares it.
    """

    def __init__(self, history_bits: int, seed: int, noise: float = 0.05):
        if history_bits < 1:
            raise ValueError(
                f"history_bits must be >= 1, got {history_bits}"
            )
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise must be in [0, 1], got {noise}")
        self.history_bits = history_bits
        self.seed = seed
        self.noise = noise
        table_rng = random.Random(seed)
        self._mask = (1 << history_bits) - 1
        self._table: Dict[int, bool] = {
            pattern: table_rng.random() < 0.5
            for pattern in range(1 << history_bits)
        }

    def next_outcome(self, rng: random.Random, global_history: int) -> bool:
        outcome = self._table[global_history & self._mask]
        if self.noise and rng.random() < self.noise:
            return not outcome
        return outcome


class MarkovBehavior(BranchBehavior):
    """Two-state Markov chain producing runs of taken / not-taken."""

    def __init__(self, p_stay_taken: float, p_stay_not_taken: float,
                 start_taken: bool = True):
        for name, p in (
            ("p_stay_taken", p_stay_taken),
            ("p_stay_not_taken", p_stay_not_taken),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.p_stay_taken = p_stay_taken
        self.p_stay_not_taken = p_stay_not_taken
        self.start_taken = start_taken
        self._state = start_taken

    def next_outcome(self, rng: random.Random, global_history: int) -> bool:
        outcome = self._state
        stay = self.p_stay_taken if self._state else self.p_stay_not_taken
        if rng.random() >= stay:
            self._state = not self._state
        return outcome

    def clone(self) -> "MarkovBehavior":
        return MarkovBehavior(
            self.p_stay_taken, self.p_stay_not_taken, self.start_taken
        )


class BehaviorMix:
    """A weighted recipe for drawing fresh branch behaviours.

    The mix is what differentiates the IBS-clone workloads: e.g. the
    ``mpeg_play`` clone carries more hard (noisy / data-dependent)
    branches than the ``nroff`` clone, reproducing their relative
    intrinsic misprediction rates.
    """

    def __init__(
        self,
        biased_weight: float = 0.55,
        loop_weight: float = 0.15,
        pattern_weight: float = 0.05,
        correlated_weight: float = 0.15,
        markov_weight: float = 0.10,
        bias_strength: float = 0.92,
        loop_trip_mean: int = 8,
        correlated_bits: int = 8,
        correlated_noise: float = 0.06,
        hard_fraction: float = 0.08,
    ):
        weights = [
            biased_weight,
            loop_weight,
            pattern_weight,
            correlated_weight,
            markov_weight,
        ]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("behaviour weights must be >= 0 and not all 0")
        self._weights = weights
        self.bias_strength = bias_strength
        self.loop_trip_mean = loop_trip_mean
        self.correlated_bits = correlated_bits
        self.correlated_noise = correlated_noise
        self.hard_fraction = hard_fraction

    _KINDS = ("biased", "loop", "pattern", "correlated", "markov")

    def draw_loop(self, rng: random.Random) -> LoopBehavior:
        """Draw a loop back-edge behaviour (used for every loop node)."""
        if rng.random() < 0.45:
            # Short, fixed-trip loop: predictable once the history
            # window covers the trip count (rewards longer history).
            return LoopBehavior(rng.randint(2, 3), jitter=0)
        # Long loop: the exit mispredict is amortised over many
        # iterations, like the bulk of real loop back-edges.
        trips = max(12, int(rng.expovariate(1.0 / self.loop_trip_mean)) + 12)
        return LoopBehavior(trips, jitter=rng.choice([0, 1, 3]))

    def draw(self, rng: random.Random) -> BranchBehavior:
        """Draw a fresh behaviour instance for one static branch."""
        kind = rng.choices(self._KINDS, weights=self._weights)[0]
        if kind == "biased":
            if rng.random() < self.hard_fraction:
                # A genuinely hard, near-50/50 data-dependent branch.
                p = rng.uniform(0.35, 0.65)
            else:
                p = self.bias_strength + rng.uniform(
                    0.0, 1.0 - self.bias_strength
                )
            if rng.random() < 0.5:
                p = 1.0 - p  # biased not-taken just as often
            return BiasedBehavior(p)
        if kind == "loop":
            # A loop-patterned *if* branch (e.g. "every n-th element"):
            # long runs only — a short run on an if-branch is never
            # covered by its own history window and would be pure noise.
            trips = max(
                12, int(rng.expovariate(1.0 / self.loop_trip_mean)) + 12
            )
            return LoopBehavior(trips, jitter=rng.choice([0, 1]))
        if kind == "pattern":
            length = rng.randint(2, 6)
            pattern = [rng.random() < 0.5 for _ in range(length)]
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]  # guarantee a real pattern
            return PatternBehavior(pattern)
        if kind == "correlated":
            bits = rng.randint(2, self.correlated_bits)
            return CorrelatedBehavior(
                bits, seed=rng.getrandbits(32), noise=self.correlated_noise
            )
        return MarkovBehavior(
            p_stay_taken=rng.uniform(0.95, 0.998),
            p_stay_not_taken=rng.uniform(0.85, 0.99),
        )
