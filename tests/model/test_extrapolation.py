"""Tests for the Figure 11 extrapolation machinery."""

import numpy as np
import pytest

from repro.aliasing.distance import LastUseDistanceTracker
from repro.aliasing.three_cs import pair_stream
from repro.model.analytical import aliasing_probability, p_sk
from repro.model.extrapolation import collect_distances, extrapolate_gskew
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.traces.stats import bias_density


class TestCollectDistances:
    def test_one_entry_per_conditional(self, tiny_trace):
        distances = collect_distances(tiny_trace, 4)
        assert len(distances) == tiny_trace.conditional_count

    def test_first_encounters_are_minus_one(self, tiny_trace):
        distances = collect_distances(tiny_trace, 4)
        assert distances.dtype == np.int32
        pairs = list(pair_stream(tiny_trace, 4))
        seen = set()
        for pair, distance in zip(pairs, distances.tolist()):
            if pair not in seen:
                assert distance == -1
                seen.add(pair)
            else:
                assert distance >= 0

    def test_long_history_falls_back_to_the_tracker(self, tiny_trace):
        # Past 63 bits the register leaves the uint64 pair pass; the
        # streaming tracker's distances come back in the same encoding.
        distances = collect_distances(tiny_trace, 64)
        tracker = LastUseDistanceTracker(capacity=len(tiny_trace))
        expected = [tracker.reference(pair) for pair in pair_stream(tiny_trace, 64)]
        assert distances.dtype == np.int32
        assert distances.tolist() == [-1 if d is None else d for d in expected]


class TestExtrapolation:
    def test_vectorised_matches_scalar_formula(self, tiny_trace):
        """The numpy fast path must agree with per-reference formula
        application."""
        distances = collect_distances(tiny_trace, 4)
        bias = bias_density(tiny_trace, 4)["static_taken_bias"]
        result = extrapolate_gskew(
            tiny_trace, 4, bank_entries=256, distances=distances, bias=bias
        )
        expected = sum(
            p_sk(aliasing_probability(None if d < 0 else d, 256), bias)
            for d in distances.tolist()
        ) / len(distances)
        assert result.aliasing_overhead == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_bank_size(self, tiny_trace):
        distances = collect_distances(tiny_trace, 4)
        overheads = [
            extrapolate_gskew(
                tiny_trace, 4, bank_entries=n, distances=distances
            ).aliasing_overhead
            for n in (32, 128, 512, 4096)
        ]
        assert overheads == sorted(overheads, reverse=True)

    def test_total_includes_unaliased_rate(self, tiny_trace):
        result = extrapolate_gskew(
            tiny_trace, 4, bank_entries=128, unaliased_rate=0.05
        )
        assert result.misprediction_rate == pytest.approx(
            result.aliasing_overhead + 0.05
        )

    def test_multibank_path(self, tiny_trace):
        distances = collect_distances(tiny_trace, 4)
        five = extrapolate_gskew(
            tiny_trace, 4, bank_entries=256, banks=5, distances=distances
        )
        three = extrapolate_gskew(
            tiny_trace, 4, bank_entries=256, banks=3, distances=distances
        )
        # More banks, same bank size: lower destructive overhead.
        assert five.aliasing_overhead <= three.aliasing_overhead

    def test_overestimates_measured_gskew(self, small_trace):
        """The paper: 'our model always slightly overestimates the
        misprediction rate' (it ignores constructive aliasing)."""
        from repro.predictors.unaliased import UnaliasedPredictor

        history = 4
        unaliased = simulate(
            UnaliasedPredictor(history, counter_bits=1), small_trace
        ).misprediction_ratio
        model = extrapolate_gskew(
            small_trace, history, bank_entries=256, unaliased_rate=unaliased
        )
        measured = simulate(
            make_predictor("gskew:3x256:h4:c1:total"), small_trace
        ).misprediction_ratio
        assert model.misprediction_rate >= measured * 0.9
