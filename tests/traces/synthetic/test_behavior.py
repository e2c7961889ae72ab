"""Tests for the branch-behaviour models."""

import random

import pytest

from repro.traces.synthetic.behavior import (
    BehaviorMix,
    BiasedBehavior,
    CorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)


def _outcomes(behavior, count, seed=1, history_fn=lambda i: 0):
    rng = random.Random(seed)
    return [behavior.next_outcome(rng, history_fn(i)) for i in range(count)]


class TestBiasedBehavior:
    def test_bias_statistics(self):
        outcomes = _outcomes(BiasedBehavior(0.9), 4000)
        assert 0.85 < sum(outcomes) / len(outcomes) < 0.95

    def test_extremes(self):
        assert all(_outcomes(BiasedBehavior(1.0), 100))
        assert not any(_outcomes(BiasedBehavior(0.0), 100))

    def test_validation(self):
        with pytest.raises(ValueError):
            BiasedBehavior(1.5)


class TestLoopBehavior:
    def test_trip_pattern(self):
        outcomes = _outcomes(LoopBehavior(4), 12)
        assert outcomes == [True, True, True, False] * 3

    def test_trip_one_never_taken(self):
        assert _outcomes(LoopBehavior(1), 5) == [False] * 5

    def test_jitter_rearms_within_bounds(self):
        behavior = LoopBehavior(6, jitter=2)
        outcomes = _outcomes(behavior, 300, seed=5)
        runs = []
        run = 0
        for taken in outcomes:
            run += 1
            if not taken:
                runs.append(run)
                run = 0
        assert runs and all(4 <= r <= 8 for r in runs)

    def test_clone_resets_state(self):
        behavior = LoopBehavior(4)
        _outcomes(behavior, 2)  # advance mid-loop
        clone = behavior.clone()
        assert _outcomes(clone, 4) == [True, True, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            LoopBehavior(0)
        with pytest.raises(ValueError):
            LoopBehavior(4, jitter=-1)


class TestPatternBehavior:
    def test_cycles(self):
        pattern = [True, False, False]
        outcomes = _outcomes(PatternBehavior(pattern), 9)
        assert outcomes == pattern * 3

    def test_clone_resets_position(self):
        behavior = PatternBehavior([True, False])
        _outcomes(behavior, 1)
        assert _outcomes(behavior.clone(), 2) == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternBehavior([])


class TestCorrelatedBehavior:
    def test_deterministic_given_history_without_noise(self):
        behavior = CorrelatedBehavior(4, seed=77, noise=0.0)
        a = _outcomes(behavior, 50, history_fn=lambda i: i % 16)
        b = _outcomes(
            CorrelatedBehavior(4, seed=77, noise=0.0),
            50,
            history_fn=lambda i: i % 16,
        )
        assert a == b

    def test_history_drives_outcome(self):
        behavior = CorrelatedBehavior(4, seed=3, noise=0.0)
        rng = random.Random(0)
        by_history = {
            h: behavior.next_outcome(rng, h) for h in range(16)
        }
        assert len(set(by_history.values())) == 2  # both outcomes occur

    def test_noise_rate(self):
        behavior = CorrelatedBehavior(2, seed=5, noise=0.5)
        clean = CorrelatedBehavior(2, seed=5, noise=0.0)
        rng = random.Random(9)
        clean_rng = random.Random(9)
        flips = sum(
            behavior.next_outcome(rng, i % 4)
            != clean.next_outcome(clean_rng, i % 4)
            for i in range(2000)
        )
        assert 800 < flips < 1200

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedBehavior(0, seed=1)
        with pytest.raises(ValueError):
            CorrelatedBehavior(4, seed=1, noise=2.0)


class TestMarkovBehavior:
    def test_produces_runs(self):
        behavior = MarkovBehavior(0.95, 0.95)
        outcomes = _outcomes(behavior, 4000, seed=2)
        switches = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if a != b
        )
        # Switch probability ~0.05 per step.
        assert switches < 400

    def test_start_state(self):
        assert _outcomes(MarkovBehavior(1.0, 1.0, start_taken=True), 5) == [
            True
        ] * 5
        assert _outcomes(
            MarkovBehavior(1.0, 1.0, start_taken=False), 5
        ) == [False] * 5

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovBehavior(1.5, 0.5)
        with pytest.raises(ValueError):
            MarkovBehavior(0.5, -0.1)


class TestBehaviorMix:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"loop_weight": float("nan")},
            {"markov_weight": float("inf")},
            {"biased_weight": 1e308, "loop_weight": 1e308},
            {"correlated_bits": 1},
            {"correlated_bits": 17},
            {"correlated_bits": 8.0},
            {"loop_trip_mean": 0},
            {"loop_trip_mean": -4},
            {"loop_trip_mean": float("inf")},
            {"loop_trip_mean": 1e30},
            {"bias_strength": 1.5},
            {"bias_strength": -0.1},
            {"correlated_noise": 1.2},
            {"hard_fraction": -0.5},
            {"hard_fraction": float("nan")},
        ],
        ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_refuses_values_a_draw_would_fail_on(self, overrides):
        # Each of these used to be accepted and then fail mid-draw
        # (``empty range for randrange()``, ``ZeroDivisionError``, a
        # ``p_taken`` error, a non-finite ``choices`` total) or draw
        # truth tables no runner reads past 16 bits.
        with pytest.raises(ValueError):
            BehaviorMix(**overrides)

    def test_accepts_the_edges_of_its_range(self):
        for overrides in (
            {"correlated_bits": 2}, {"correlated_bits": 16},
            {"bias_strength": 0.0, "correlated_noise": 1.0, "hard_fraction": 1},
            {"biased_weight": 0, "loop_weight": 0, "pattern_weight": 0,
             "correlated_weight": 0, "markov_weight": 3},
            {"loop_trip_mean": 1e-9},
            {"loop_trip_mean": 2**50},
        ):
            mix = BehaviorMix(**overrides)
            rng = random.Random(1)
            for _ in range(200):
                mix.draw(rng)
                mix.draw_loop(rng)

    def test_draw_produces_all_kinds(self):
        mix = BehaviorMix()
        rng = random.Random(123)
        kinds = {type(mix.draw(rng)).__name__ for __ in range(400)}
        assert {
            "BiasedBehavior",
            "LoopBehavior",
            "CorrelatedBehavior",
            "MarkovBehavior",
            "PatternBehavior",
        } <= kinds

    def test_draw_loop_always_loop(self):
        mix = BehaviorMix()
        rng = random.Random(5)
        for __ in range(100):
            behavior = mix.draw_loop(rng)
            assert isinstance(behavior, LoopBehavior)
            assert behavior.trip_count >= 2

    def test_pattern_never_constant(self):
        mix = BehaviorMix(pattern_weight=1.0)
        rng = random.Random(6)
        for __ in range(200):
            behavior = mix.draw(rng)
            if isinstance(behavior, PatternBehavior):
                assert any(behavior.pattern) and not all(behavior.pattern)

    def test_validation(self):
        with pytest.raises(ValueError):
            BehaviorMix(biased_weight=-1.0)
        with pytest.raises(ValueError):
            BehaviorMix(
                biased_weight=0,
                loop_weight=0,
                pattern_weight=0,
                correlated_weight=0,
                markov_weight=0,
            )
