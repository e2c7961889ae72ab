"""Tests for the Fenwick tree and last-use-distance tracker."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aliasing.distance import (
    FenwickTree,
    LastUseDistanceTracker,
    distance_histogram,
)


def brute_force_distances(keys):
    """Reference implementation: scan backwards, count distinct keys."""
    out = []
    for i, key in enumerate(keys):
        previous = None
        for j in range(i - 1, -1, -1):
            if keys[j] == key:
                previous = j
                break
        if previous is None:
            out.append(None)
        else:
            out.append(len(set(keys[previous + 1 : i])))
    return out


class TestFenwickTree:
    def test_prefix_sums(self):
        tree = FenwickTree(8)
        tree.add(0, 1)
        tree.add(3, 2)
        tree.add(7, 5)
        assert tree.prefix_sum(0) == 1
        assert tree.prefix_sum(2) == 1
        assert tree.prefix_sum(3) == 3
        assert tree.prefix_sum(7) == 8
        assert tree.prefix_sum(-1) == 0
        assert tree.prefix_sum(100) == 8

    def test_suffix_count(self):
        tree = FenwickTree(8)
        tree.add(1, 1)
        tree.add(5, 1)
        assert tree.suffix_count(0) == 2
        assert tree.suffix_count(1) == 1
        assert tree.suffix_count(5) == 0

    def test_negative_delta(self):
        tree = FenwickTree(4)
        tree.add(2, 1)
        tree.add(2, -1)
        assert tree.total == 0
        assert tree.prefix_sum(3) == 0

    def test_bounds(self):
        tree = FenwickTree(4)
        with pytest.raises(IndexError):
            tree.add(4, 1)
        with pytest.raises(IndexError):
            tree.add(-1, 1)
        with pytest.raises(ValueError):
            FenwickTree(0)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=-3, max_value=3),
            ),
            max_size=60,
        )
    )
    def test_matches_naive_array(self, operations):
        tree = FenwickTree(32)
        array = [0] * 32
        for position, delta in operations:
            tree.add(position, delta)
            array[position] += delta
        for position in range(-1, 33):
            expected = sum(array[: max(0, position + 1)])
            assert tree.prefix_sum(position) == expected


class TestLastUseDistanceTracker:
    def test_documented_example(self):
        tracker = LastUseDistanceTracker(capacity=8)
        observed = [tracker.reference(x) for x in ["a", "b", "a", "a", "b"]]
        assert observed == [None, None, 1, 0, 1]

    def test_capacity_overflow(self):
        tracker = LastUseDistanceTracker(capacity=2)
        tracker.reference("a")
        tracker.reference("b")
        with pytest.raises(OverflowError):
            tracker.reference("c")

    def test_counters(self):
        tracker = LastUseDistanceTracker(capacity=8)
        for key in ("a", "b", "a"):
            tracker.reference(key)
        assert tracker.distinct_keys == 2
        assert tracker.references == 3

    @given(
        st.lists(st.integers(min_value=0, max_value=9), max_size=80)
    )
    @settings(max_examples=60)
    def test_matches_brute_force(self, keys):
        tracker = LastUseDistanceTracker(capacity=max(1, len(keys)))
        observed = [tracker.reference(key) for key in keys]
        assert observed == brute_force_distances(keys)

    def test_random_large_stream(self):
        rng = random.Random(19)
        keys = [rng.randrange(40) for __ in range(800)]
        tracker = LastUseDistanceTracker(capacity=len(keys))
        observed = [tracker.reference(key) for key in keys]
        assert observed == brute_force_distances(keys)


class TestDistanceHistogram:
    def test_bucketing(self):
        buckets, first = distance_histogram(
            np.array([-1, 0, 1, 2, 3, 7, 8, -1])
        )
        # d=0 -> bucket 0; d=1,2 -> bucket 1; d=3..6 -> bucket 2; etc.
        assert first == 2
        assert buckets[0] == 1
        assert buckets[1] == 2
        assert buckets[2] == 1
        assert buckets[3] == 2  # d=7 (8->bit_length 4... check) and d=8

    def test_empty(self):
        assert distance_histogram(np.empty(0, dtype=np.int64)) == ([], 0)

    def test_total_preserved(self):
        distances = np.array([-1, 5, 3, -1, 0, 100])
        buckets, first = distance_histogram(distances)
        assert first + sum(buckets) == len(distances)
