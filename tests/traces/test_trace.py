"""Tests for the Trace data type."""

import numpy as np
import pytest

from repro.traces.trace import BranchRecord, Trace


def _records():
    return [
        BranchRecord(pc=0x400100, taken=True, conditional=True),
        BranchRecord(pc=0x400104, taken=True, conditional=False, target=0x500000),
        BranchRecord(pc=0x400108, taken=False, conditional=True),
        BranchRecord(pc=0x400100, taken=False, conditional=True),
    ]


class TestConstruction:
    def test_from_records_roundtrip(self):
        trace = Trace.from_records(_records(), name="t", seed=9)
        assert len(trace) == 4
        assert trace[0] == _records()[0]
        assert trace[1].target == 0x500000
        assert trace.name == "t"
        assert trace.seed == 9

    def test_from_columns(self):
        trace = Trace.from_columns(
            [0x100, 0x104], [1, 0], [1, 1], name="cols"
        )
        assert trace[1] == BranchRecord(pc=0x104, taken=False)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                np.array([1, 2], dtype=np.uint64),
                np.array([1], dtype=np.uint8),
                np.array([1, 1], dtype=np.uint8),
            )
        with pytest.raises(ValueError):
            Trace(
                np.array([1], dtype=np.uint64),
                np.array([1], dtype=np.uint8),
                np.array([1], dtype=np.uint8),
                np.array([1, 2], dtype=np.uint64),
            )

    def test_iteration(self):
        trace = Trace.from_records(_records())
        assert list(trace) == _records()

    @pytest.mark.parametrize("column", ["takens", "conditionals"])
    @pytest.mark.parametrize("bad", [2, -1, 256, 257])
    def test_non_bit_flags_rejected(self, column, bad):
        # 256 and 257 would wrap to 0 and 1 in a plain uint8 cast.
        flags = {
            "takens": np.array([1, 0, 1], dtype=np.int64),
            "conditionals": np.array([1, 1, 0], dtype=np.int64),
        }
        flags[column][1] = bad
        with pytest.raises(ValueError, match=rf"{column}\[1\] is {bad}"):
            Trace(np.array([4, 8, 12], dtype=np.uint64), **flags)

    def test_from_columns_rejects_non_bit_flags(self):
        with pytest.raises(ValueError, match="takens"):
            Trace.from_columns([0x100, 0x104], [1, 2], [1, 1])

    def test_bool_and_uint8_flags_accepted(self):
        trace = Trace(
            np.array([4, 8], dtype=np.uint64),
            np.array([True, False]),
            np.array([1, 1], dtype=np.uint8),
        )
        assert trace.takens.dtype == np.uint8
        assert trace.takens.tolist() == [1, 0]

    def test_doubled_takens_rejected(self, small_trace):
        """Regression: a trace whose every 7th ``taken`` was doubled used
        to load, and the generic and native engines then counted
        different mispredictions on it."""
        takens = small_trace.takens.astype(np.int64)
        takens[::7] *= 2
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Trace(
                small_trace.pcs,
                takens,
                small_trace.conditionals,
                small_trace.targets,
            )


class TestViews:
    def test_columns_cached_and_plain_ints(self):
        trace = Trace.from_records(_records())
        pcs, takens, conditionals, targets = trace.columns()
        assert pcs is trace.columns()[0]  # cached
        assert isinstance(pcs[0], int)
        assert takens == [1, 1, 0, 0]
        assert conditionals == [1, 0, 1, 1]

    def test_head(self):
        trace = Trace.from_records(_records(), name="t")
        head = trace.head(2)
        assert len(head) == 2
        assert head[0].pc == 0x400100
        assert "t[:2]" in head.name


class TestSummary:
    def test_conditional_count(self):
        trace = Trace.from_records(_records())
        assert trace.conditional_count == 3

    def test_static_conditional_count(self):
        trace = Trace.from_records(_records())
        assert trace.static_conditional_count == 2  # 0x400100 repeats

    def test_taken_ratio_over_conditionals_only(self):
        trace = Trace.from_records(_records())
        assert trace.taken_ratio == pytest.approx(1 / 3)

    def test_empty_trace(self):
        trace = Trace.from_columns([], [], [])
        assert trace.conditional_count == 0
        assert trace.taken_ratio == 0.0
        assert trace.static_conditional_count == 0
