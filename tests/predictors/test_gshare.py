"""Tests for gshare, including the paper's footnote-1 alignment rule."""

from hypothesis import given
from hypothesis import strategies as st

from repro.predictors.gshare import GsharePredictor, gshare_index


class TestIndexFunction:
    def test_zero_history_is_truncation(self):
        assert gshare_index(0x400104, 0, 10, 0) == (0x400104 >> 2) & 0x3FF

    def test_footnote1_alignment(self):
        """History shorter than the index XORs against the HIGH end of
        the index field."""
        index_bits, history_bits = 10, 4
        base = gshare_index(0x0, 0, index_bits, history_bits)
        flipped = gshare_index(0x0, 0b0001, index_bits, history_bits)
        # History bit h1 lands at index bit position 6 (= 10 - 4).
        assert flipped == base ^ (1 << 6)

    def test_history_equal_to_index_width(self):
        assert gshare_index(0x0, 0b1111111111, 10, 10) == 0b1111111111

    def test_overlong_history_folds(self):
        """Every history bit still influences the index when k > n."""
        index_bits, history_bits = 4, 8
        base = gshare_index(0x0, 0, index_bits, history_bits)
        for bit in range(history_bits):
            flipped = gshare_index(0x0, 1 << bit, index_bits, history_bits)
            assert flipped != base, f"history bit {bit} lost"

    @given(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=0, max_value=16),
    )
    def test_index_in_range(self, address, history, index_bits, history_bits):
        index = gshare_index(address, history, index_bits, history_bits)
        assert 0 <= index < (1 << index_bits)

    def test_word_alignment_dropped(self):
        """Addresses 1-3 bytes apart (same word) index identically."""
        assert gshare_index(0x400100, 5, 10, 4) == gshare_index(
            0x400103, 5, 10, 4
        )


class TestPredictor:
    def test_learns_biased_branch(self):
        predictor = GsharePredictor(index_bits=6, history_bits=4)
        for __ in range(10):
            predictor.predict_and_update(0x400100, False)
        assert predictor.predict(0x400100) is False

    def test_history_affects_index(self):
        predictor = GsharePredictor(index_bits=6, history_bits=4)
        predictor.history.reset(0b0000)
        index_a = predictor.index(0x400100)
        predictor.history.reset(0b1010)
        index_b = predictor.index(0x400100)
        assert index_a != index_b

    def test_fused_path_matches_generic(self):
        import random

        rng = random.Random(5)
        fused = GsharePredictor(5, 4)
        generic = GsharePredictor(5, 4)
        for __ in range(400):
            address = 0x400000 + rng.randrange(128) * 4
            taken = rng.random() < 0.6
            expected = generic.predict(address)
            generic.train(address, taken)
            generic.notify_outcome(address, taken)
            assert fused.predict_and_update(address, taken) == expected
        assert fused.bank.counters.values == generic.bank.counters.values

    def test_unconditional_shifts_history_only(self):
        predictor = GsharePredictor(6, 4)
        counters_before = list(predictor.bank.counters.values)
        predictor.notify_unconditional(0x400200, True)
        assert predictor.history.value == 1
        assert list(predictor.bank.counters.values) == counters_before

    def test_reset(self):
        predictor = GsharePredictor(6, 4)
        predictor.predict_and_update(0x400100, False)
        predictor.reset()
        assert predictor.history.value == 0
        assert all(v == 2 for v in predictor.bank.counters.values)

    def test_storage_and_entries(self):
        predictor = GsharePredictor(12, 8)
        assert predictor.entries == 4096
        assert predictor.storage_bits == 8192

    def test_aliasing_is_real(self):
        """Two branches mapping to the same entry interfere."""
        predictor = GsharePredictor(index_bits=2, history_bits=0)
        a, b = 0x400000, 0x400000 + (4 << 2)  # same index in 4 entries
        assert predictor.index(a) == predictor.index(b)
        for __ in range(4):
            predictor.predict_and_update(a, False)
        assert predictor.predict(b) is False  # b inherits a's training
