"""Tests for saturating counters and counter arrays."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.counters import (
    CounterArray,
    SaturatingCounter,
    counter_init_value,
)


class TestInitValue:
    def test_one_bit(self):
        assert counter_init_value(1, True) == 1
        assert counter_init_value(1, False) == 0

    def test_two_bit_weak(self):
        assert counter_init_value(2, True) == 2  # weakly taken
        assert counter_init_value(2, False) == 1  # weakly not taken

    def test_three_bit(self):
        assert counter_init_value(3, True) == 4
        assert counter_init_value(3, False) == 3

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            counter_init_value(0, True)


class TestSaturatingCounter:
    def test_default_is_weakly_taken(self):
        c = SaturatingCounter(bits=2)
        assert c.value == 2
        assert c.prediction is True

    def test_two_bit_state_machine(self):
        c = SaturatingCounter(bits=2, value=0)
        transitions = []
        for taken in (True, True, True, False, False, False, False):
            c.update(taken)
            transitions.append(c.value)
        # 0 -T-> 1 -T-> 2 -T-> 3 -N-> 2 -N-> 1 -N-> 0 -N-> 0 (saturate)
        assert transitions == [1, 2, 3, 2, 1, 0, 0]

    def test_one_bit_flips(self):
        c = SaturatingCounter(bits=1, value=0)
        assert c.prediction is False
        c.update(True)
        assert c.prediction is True
        c.update(True)
        assert c.value == 1  # saturated

    def test_hysteresis(self):
        """A strongly-taken 2-bit counter survives one not-taken."""
        c = SaturatingCounter(bits=2, value=3)
        c.update(False)
        assert c.prediction is True
        c.update(False)
        assert c.prediction is False

    def test_is_saturated(self):
        assert SaturatingCounter(bits=2, value=0).is_saturated
        assert SaturatingCounter(bits=2, value=3).is_saturated
        assert not SaturatingCounter(bits=2, value=2).is_saturated

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=2, value=4)
        with pytest.raises(ValueError):
            SaturatingCounter(bits=2, value=-1)
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.booleans(), max_size=40),
    )
    def test_value_always_in_range(self, bits, outcomes):
        c = SaturatingCounter(bits=bits)
        for taken in outcomes:
            c.update(taken)
            assert 0 <= c.value <= (1 << bits) - 1

    @given(st.lists(st.booleans(), min_size=2, max_size=40))
    def test_converges_to_constant_stream(self, outcomes):
        """After two identical outcomes a 2-bit counter predicts them."""
        c = SaturatingCounter(bits=2)
        direction = outcomes[0]
        for __ in range(2):
            c.update(direction)
        assert c.prediction == direction


class TestCounterArray:
    def test_default_initial_weakly_taken(self):
        bank = CounterArray(8, bits=2)
        assert all(v == 2 for v in bank.values)
        assert bank.prediction(0) is True

    def test_update_matches_scalar_counter(self):
        bank = CounterArray(4, bits=2, initial=1)
        scalar = SaturatingCounter(bits=2, value=1)
        import random

        rng = random.Random(3)
        for __ in range(200):
            taken = rng.random() < 0.6
            bank.update(2, taken)
            scalar.update(taken)
            assert bank.counter(2) == scalar.value
            assert bank.prediction(2) == scalar.prediction

    def test_entries_independent(self):
        bank = CounterArray(4, bits=2, initial=0)
        bank.update(1, True)
        assert bank.counter(1) == 1
        assert bank.counter(0) == 0

    def test_reset(self):
        bank = CounterArray(4, bits=2, initial=0)
        bank.update(0, True)
        bank.reset()
        assert list(bank.values) == [2, 2, 2, 2]
        bank.reset(initial=0)
        assert list(bank.values) == [0, 0, 0, 0]

    def test_values_are_one_buffer_of_bytes(self):
        # One byte per counter, and the same buffer for the bank's life:
        # reset writes into it, so views taken before stay live.
        bank = CounterArray(4, bits=8, initial=255)
        values = bank.values
        assert values.typecode == "B" and values.itemsize == 1
        view = memoryview(values)
        bank.update(2, False)
        bank.reset(initial=7)
        assert bank.values is values
        assert view.tolist() == [7, 7, 7, 7]

    @pytest.mark.parametrize("bits", [9, 16, 64])
    def test_refuses_widths_a_byte_cannot_hold(self, bits):
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            CounterArray(4, bits=bits)

    def test_len(self):
        assert len(CounterArray(16)) == 16

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            CounterArray(0)
        with pytest.raises(ValueError):
            CounterArray(4, bits=0)
        with pytest.raises(ValueError):
            CounterArray(4, bits=2, initial=9)
        with pytest.raises(ValueError):
            CounterArray(4).reset(initial=7)

    def test_one_bit_threshold(self):
        bank = CounterArray(2, bits=1, initial=0)
        assert bank.prediction(0) is False
        bank.update(0, True)
        assert bank.prediction(0) is True
