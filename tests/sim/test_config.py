"""Tests for the predictor spec-string factory."""

import pytest

from repro.core.egskew import EnhancedSkewedPredictor
from repro.core.gskew import SkewedPredictor
from repro.core.update import UpdatePolicy
from repro.predictors.associative import FullyAssociativePredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gselect import GselectPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.predictors.two_level import PAsPredictor
from repro.predictors.unaliased import UnaliasedPredictor
from repro.sim.config import format_entries, make_predictor, parse_size


class TestParseSize:
    def test_plain_and_suffixed(self):
        assert parse_size("64") == 64
        assert parse_size("4k") == 4096
        assert parse_size("16K") == 16384
        assert parse_size("1m") == 1 << 20

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            parse_size("100")
        with pytest.raises(ValueError):
            parse_size("3k")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_size("")
        with pytest.raises(ValueError):
            parse_size("kk")
        with pytest.raises(ValueError):
            parse_size("-4")

    def test_format_entries_roundtrip(self):
        for entries in (64, 512, 1024, 4096, 1 << 20, 3 * 256):
            if entries & (entries - 1) == 0:
                assert parse_size(format_entries(entries)) == entries

    def test_format_entries_paper_notation(self):
        assert format_entries(4096) == "4k"
        assert format_entries(1 << 20) == "1m"
        assert format_entries(96) == "96"


class TestMakePredictor:
    def test_gshare(self):
        predictor = make_predictor("gshare:16k:h12")
        assert isinstance(predictor, GsharePredictor)
        assert predictor.entries == 16384
        assert predictor.history_bits == 12
        assert predictor.counter_bits == 2

    def test_gselect_with_counter_bits(self):
        predictor = make_predictor("gselect:4k:h4:c1")
        assert isinstance(predictor, GselectPredictor)
        assert predictor.counter_bits == 1

    def test_bimodal(self):
        predictor = make_predictor("bimodal:2k")
        assert isinstance(predictor, BimodalPredictor)
        assert predictor.entries == 2048

    def test_gskew_geometry_and_policy(self):
        predictor = make_predictor("gskew:3x4k:h12:partial")
        assert isinstance(predictor, SkewedPredictor)
        assert len(predictor.banks) == 3
        assert predictor.banks[0].entries == 4096
        assert predictor.update_policy is UpdatePolicy.PARTIAL

    def test_gskew_default_policy_is_partial(self):
        assert (
            make_predictor("gskew:3x1k:h4").update_policy
            is UpdatePolicy.PARTIAL
        )

    def test_gskew_five_banks(self):
        predictor = make_predictor("gskew:5x256:h4:total")
        assert len(predictor.banks) == 5
        assert predictor.update_policy is UpdatePolicy.TOTAL

    def test_egskew(self):
        predictor = make_predictor("egskew:3x4k:h12")
        assert isinstance(predictor, EnhancedSkewedPredictor)

    def test_egskew_rejects_non_three_banks(self):
        with pytest.raises(ValueError):
            make_predictor("egskew:5x1k:h4")

    @pytest.mark.parametrize("spec", ["gskew:3x1:h4", "egskew:3x1:h4"])
    def test_multi_bank_skew_rejects_one_entry_banks(self, spec):
        # The skewing family needs at least one index bit to shuffle.
        with pytest.raises(ValueError, match="bank_index_bits >= 1"):
            make_predictor(spec)

    def test_single_bank_skew_keeps_one_entry(self):
        assert make_predictor("gskew:1x1:h4").bank_index_bits == 0

    def test_fa(self):
        predictor = make_predictor("fa:1k:h4")
        assert isinstance(predictor, FullyAssociativePredictor)
        assert predictor.entries == 1024

    def test_unaliased(self):
        predictor = make_predictor("unaliased:h12:c1")
        assert isinstance(predictor, UnaliasedPredictor)
        assert predictor.counter_bits == 1

    def test_hybrid(self):
        predictor = make_predictor("hybrid:4k:h10")
        assert isinstance(predictor, HybridPredictor)

    def test_pas(self):
        predictor = make_predictor("pas:1k/h6:16k")
        assert isinstance(predictor, PAsPredictor)
        assert predictor.history_bits == 6

    def test_static(self):
        assert isinstance(make_predictor("taken"), AlwaysTakenPredictor)
        assert isinstance(
            make_predictor("nottaken"), AlwaysNotTakenPredictor
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "unknown:4k",
            "gshare",  # missing size
            "gshare:4k",  # missing history
            "gskew:4k:h4",  # missing geometry
            "gshare:4k:h4:x9",  # unknown field
            "taken:4k",  # static takes no params
            "pas:1k:16k",  # missing /h
            "pas:1k/h6",  # missing counter table
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            make_predictor(spec)
