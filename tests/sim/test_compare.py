"""Tests for the paired statistical comparison utilities."""

import numpy as np
import pytest

from repro.predictors.gshare import GsharePredictor
from repro.predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.sim.compare import (
    PairedOutcomes,
    bootstrap_difference,
    mcnemar,
    paired_outcomes,
)
from repro.sim.config import make_predictor
from repro.sim.engine import miss_stream
from repro.traces.synthetic.workloads import ibs_trace
from repro.traces.trace import BranchRecord, Trace


NO_MISSES = np.zeros(0, dtype=np.uint8)


def _biased_trace(count=200, taken_ratio=0.8):
    records = [
        BranchRecord(pc=0x100 + 4 * (i % 16), taken=(i % 10) < taken_ratio * 10)
        for i in range(count)
    ]
    return Trace.from_records(records, name="biased")


class TestPairedOutcomes:
    def test_agreement_table_partitions(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(4, 2), tiny_trace
        )
        assert paired.branches == tiny_trace.conditional_count
        assert len(paired.a_missed) == len(paired.b_missed) == paired.branches
        assert paired.both_wrong == np.count_nonzero(
            paired.a_missed & paired.b_missed
        )

    def test_streams_match_each_predictor_alone(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(4, 2), tiny_trace
        )
        assert np.array_equal(
            paired.a_missed, miss_stream(GsharePredictor(6, 4), tiny_trace)
        )
        assert np.array_equal(
            paired.b_missed, miss_stream(GsharePredictor(4, 2), tiny_trace)
        )

    def test_one_predictor_twice_is_refused(self, tiny_trace):
        # One object run as both sides would be trained twice per
        # branch, and its counts would belong to neither run.
        predictor = GsharePredictor(6, 4)
        with pytest.raises(ValueError, match="two distinct predictors"):
            paired_outcomes(predictor, predictor, tiny_trace)

    def test_identical_predictors_fully_concordant(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(6, 4), tiny_trace
        )
        assert paired.only_a_correct == 0
        assert paired.only_b_correct == 0

    def test_ratios_match_direct_counts(self):
        trace = _biased_trace()
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        assert paired.a_misprediction_ratio == pytest.approx(
            1 - trace.taken_ratio
        )
        assert paired.b_misprediction_ratio == pytest.approx(
            trace.taken_ratio
        )

    def test_opposite_predictors_fully_discordant(self):
        trace = _biased_trace()
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        assert paired.both_correct == 0
        assert paired.both_wrong == 0


class TestMcnemar:
    def test_no_discordance_gives_p_one(self):
        paired = PairedOutcomes(50, 0, 0, 10, NO_MISSES, NO_MISSES)
        assert mcnemar(paired) == 1.0

    def test_balanced_discordance_not_significant(self):
        paired = PairedOutcomes(50, 20, 20, 10, NO_MISSES, NO_MISSES)
        assert mcnemar(paired) > 0.5

    def test_lopsided_discordance_significant(self):
        paired = PairedOutcomes(50, 80, 5, 10, NO_MISSES, NO_MISSES)
        assert mcnemar(paired) < 0.001

    def test_small_counts_use_exact_test(self):
        paired = PairedOutcomes(50, 9, 1, 10, NO_MISSES, NO_MISSES)
        p = mcnemar(paired)
        # Exact binomial for 1-of-10 at 0.5: ~0.021.
        assert 0.01 < p < 0.05

    def test_clearly_different_predictors_flagged(self):
        trace = _biased_trace(count=500, taken_ratio=0.9)
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        assert mcnemar(paired) < 1e-10


class TestBootstrap:
    def test_interval_contains_true_difference(self):
        trace = _biased_trace(count=2000, taken_ratio=0.8)
        paired = paired_outcomes(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), trace
        )
        true_difference = (
            paired.a_misprediction_ratio - paired.b_misprediction_ratio
        )
        low, high = bootstrap_difference(paired, resamples=300, block=64)
        assert low <= true_difference <= high

    def test_identical_predictors_interval_straddles_zero(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(6, 4), tiny_trace
        )
        low, high = bootstrap_difference(paired, resamples=200)
        assert low <= 0.0 <= high

    def test_deterministic_given_seed(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(4, 2), tiny_trace
        )
        assert bootstrap_difference(paired, seed=7) == bootstrap_difference(
            paired, seed=7
        )

    def test_empty_outcomes(self):
        paired = PairedOutcomes(0, 0, 0, 0, NO_MISSES, NO_MISSES)
        assert bootstrap_difference(paired) == (0.0, 0.0)

    def test_validation(self, tiny_trace):
        paired = paired_outcomes(
            GsharePredictor(6, 4), GsharePredictor(4, 2), tiny_trace
        )
        with pytest.raises(ValueError):
            bootstrap_difference(paired, confidence=1.5)


class TestBootstrapPins:
    """Agreement tables and intervals of two claim matchups at scale 0.1,
    as the per-branch resampling loop computed them; the interval must
    stay bit-identical however the block sums are taken."""

    CASES = [
        (
            "groff", "gskew:3x1k:h4:partial", "gshare:4k:h4",
            (9955, 31, 20, 852),
            (-0.002418154761904762, 0.00018601190476190475),
            (-0.0022189349112426036, 9.245562130177515e-05),
        ),
        (
            "nroff", "gskew:3x512:h4:partial", "gskew:3x512:h4:total",
            (17353, 71, 13, 1035),
            (-0.004177517361111111, -0.0021158854166666665),
            (-0.004014756944444444, -0.002387152777777778),
        ),
    ]

    @pytest.mark.parametrize(
        "name, spec_a, spec_b, table, default, narrow", CASES,
        ids=[case[0] for case in CASES],
    )
    def test_interval_is_pinned(
        self, name, spec_a, spec_b, table, default, narrow
    ):
        paired = paired_outcomes(
            make_predictor(spec_a), make_predictor(spec_b),
            ibs_trace(name, 0.1),
        )
        assert (
            paired.both_correct, paired.only_a_correct,
            paired.only_b_correct, paired.both_wrong,
        ) == table
        assert bootstrap_difference(paired, resamples=400) == default
        assert bootstrap_difference(
            paired, resamples=300, block=64, confidence=0.9, seed=7
        ) == narrow
