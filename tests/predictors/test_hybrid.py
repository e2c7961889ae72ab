"""Tests for the McFarling combining (hybrid) predictor."""

from repro.predictors.hybrid import HybridPredictor
from repro.sim.engine import simulate


def _make():
    return HybridPredictor(
        chooser_index_bits=6,
        bimodal_index_bits=6,
        gshare_index_bits=6,
        history_bits=4,
    )


class TestChooser:
    def test_chooser_moves_toward_correct_component(self):
        predictor = _make()
        pc = 0x400100
        # Train bimodal right and gshare wrong... both see the same
        # stream, so instead drive a history-dependent pattern that only
        # gshare can learn and check the chooser migrates to gshare.
        pattern = [True, True, False, False] * 60
        for taken in pattern:
            predictor.predict_and_update(pc, taken)
        assert predictor._selects_gshare(pc) is True

    def test_chooser_untouched_when_components_agree(self):
        predictor = _make()
        pc = 0x400100
        before = list(predictor.chooser.values)
        # Both components start weakly-taken: they agree, so a taken
        # outcome changes counters but not the chooser.
        predictor.predict_and_update(pc, True)
        assert list(predictor.chooser.values) == before


class TestBehaviour:
    def test_learns_biased_branch(self):
        predictor = _make()
        for __ in range(10):
            predictor.predict_and_update(0x400100, False)
        assert predictor.predict(0x400100) is False

    def test_fused_path_matches_generic(self):
        import random

        rng = random.Random(4)
        fused = _make()
        generic = _make()
        for __ in range(400):
            address = 0x400000 + rng.randrange(64) * 4
            taken = rng.random() < 0.6
            expected = generic.predict(address)
            generic.train(address, taken)
            generic.notify_outcome(address, taken)
            assert fused.predict_and_update(address, taken) == expected

    def test_beats_or_matches_components(self, small_trace):
        """The tournament should not lose badly to either component of
        the same table size."""
        from repro.predictors.bimodal import BimodalPredictor
        from repro.predictors.gshare import GsharePredictor

        hybrid = simulate(_make(), small_trace).misprediction_ratio
        bimodal = simulate(
            BimodalPredictor(6), small_trace
        ).misprediction_ratio
        gshare = simulate(
            GsharePredictor(6, 4), small_trace
        ).misprediction_ratio
        assert hybrid <= min(bimodal, gshare) * 1.10

    def test_storage_counts_all_tables(self):
        predictor = _make()
        expected = 64 * 2 + (64 * 2 + 64 * 2)
        assert predictor.storage_bits == expected

    def test_reset(self):
        predictor = _make()
        predictor.predict_and_update(0x400100, False)
        predictor.reset()
        assert predictor.gshare.history.value == 0
        assert all(v == 2 for v in predictor.chooser.values)
