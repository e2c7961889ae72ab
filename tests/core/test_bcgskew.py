"""Tests for the 2Bc-gskew hybrid (the EV8-style design)."""

import random

from repro.core.bcgskew import BcGskewPredictor
from repro.sim.engine import simulate


def _make(bank_bits=6, history=6):
    return BcGskewPredictor(bank_bits, history)


class TestStructure:
    def test_storage_counts_four_tables(self):
        predictor = BcGskewPredictor(10, 8)
        assert predictor.storage_bits == 4 * 1024 * 2

    def test_bim_index_ignores_history(self):
        predictor = _make()
        predictor.history.reset(0)
        __, bim_a, *_ = predictor._components(0x400100)
        predictor.history.reset(0x3F)
        __, bim_b, *_ = predictor._components(0x400100)
        assert bim_a == bim_b

    def test_skewed_banks_use_history(self):
        predictor = _make()
        predictor.history.reset(0)
        __, __, g0_a, g1_a, __ = predictor._components(0x400100)
        predictor.history.reset(0x3F)
        __, __, g0_b, g1_b, __ = predictor._components(0x400100)
        assert (g0_a, g1_a) != (g0_b, g1_b)


class TestMetaChooser:
    def test_meta_migrates_to_bimodal_for_history_free_branches(self):
        """A strongly-biased branch seen under ever-changing history is
        served by BIM; META must settle on a side that predicts it."""
        predictor = _make(bank_bits=5, history=8)
        pc = 0x400100
        for step in range(300):
            predictor.history.reset(step & 0xFF)
            predictor.train(pc, True)
        predictor.history.reset(0xAB)
        assert predictor.predict(pc) is True

    def test_meta_untouched_when_sides_agree(self):
        predictor = _make()
        meta_before = list(predictor.meta.values)
        # Fresh tables: bim and vote agree (all weakly taken).
        predictor.train(0x400100, True)
        assert list(predictor.meta.values) == meta_before


class TestBehaviour:
    def test_learns_biased_branch(self):
        predictor = _make()
        for __ in range(10):
            predictor.predict_and_update(0x400100, False)
        assert predictor.predict(0x400100) is False

    def test_learns_history_pattern(self):
        """An alternating branch needs the skewed side; the hybrid must
        reach it through META."""
        predictor = _make(bank_bits=7, history=4)
        pc = 0x400100
        misses = 0
        for step in range(400):
            taken = step % 2 == 0
            if predictor.predict_and_update(pc, taken) != taken and step > 100:
                misses += 1
        assert misses == 0

    def test_fused_path_matches_generic(self):
        rng = random.Random(41)
        fused = _make()
        generic = _make()
        for __ in range(400):
            address = 0x400000 + rng.randrange(64) * 4
            taken = rng.random() < 0.6
            expected = generic.predict(address)
            generic.train(address, taken)
            generic.notify_outcome(address, taken)
            assert fused.predict_and_update(address, taken) == expected
        assert fused.meta.values == generic.meta.values
        assert fused.bim.counters.values == generic.bim.counters.values

    def test_beats_gshare_at_equal_storage(self, small_trace):
        from repro.sim.config import make_predictor

        bcgskew = simulate(make_predictor("2bcgskew:256:h8"), small_trace)
        gshare = simulate(make_predictor("gshare:1k:h8"), small_trace)
        assert bcgskew.storage_bits == gshare.storage_bits
        assert (
            bcgskew.misprediction_ratio <= gshare.misprediction_ratio * 1.05
        )

    def test_reset(self):
        predictor = _make()
        for __ in range(20):
            predictor.predict_and_update(0x400100, False)
        predictor.reset()
        assert predictor.predict(0x400100) is True
        assert predictor.history.value == 0
