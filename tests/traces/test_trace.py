"""Tests for the Trace data type."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.stats import bias_density
from repro.traces.trace import _CHUNK, BranchRecord, Trace


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
    def test_sim_events_are_plain_ints_and_bools(self):
        trace = Trace.from_records(_records())
        events = list(trace.sim_events())
        assert events == [
            (record.pc, record.taken, record.conditional)
            for record in _records()
        ]
        assert all(
            type(pc) is int and type(taken) is bool and type(conditional) is bool
            for pc, taken, conditional in events
        )

    @pytest.mark.parametrize(
        "view",
        [
            lambda t: t,
            lambda t: t.stride_split(3)[1],
            lambda t: t.slice(_CHUNK - 7, 2 * _CHUNK + 9),
        ],
        ids=["whole", "stride_split", "slice"],
    )
    def test_sim_events_cross_chunks_and_strides(self, view):
        # Past two chunks, and a strided view whose chunks are copied.
        rng = np.random.default_rng(3)
        length = 2 * _CHUNK + 100
        trace = view(Trace(
            4 * rng.integers(0, 900, length, dtype=np.uint64),
            rng.integers(0, 2, length), rng.integers(0, 2, length),
        ))
        before = {name: id(value) for name, value in vars(trace).items()}
        events = list(trace.sim_events())
        assert events == list(zip(
            trace.pcs.tolist(),
            trace.takens.astype(bool).tolist(),
            trace.conditionals.astype(bool).tolist(),
        ))
        assert {name: id(value) for name, value in vars(trace).items()} == before

    def test_head(self):
        trace = Trace.from_records(_records(), name="t")
        head = trace.head(2)
        assert len(head) == 2
        assert head[0].pc == 0x400100
        assert "t[:2]" in head.name

    def test_negative_head_is_refused(self):
        # head(-1) used to drop the last event silently.
        trace = Trace.from_records(_records()[:3])
        with pytest.raises(ValueError, match="count must be >= 0"):
            trace.head(-1)
        assert len(trace.head(0)) == 0
        assert len(trace.head(5)) == 3


def _columns_of(trace):
    return [getattr(trace, c) for c in ("pcs", "takens", "conditionals", "targets")]


class TestRepresentation:
    """A trace is a uint32 code per event over a table of static events."""

    def test_generated_trace_holds_four_bytes_per_event(self, small_trace):
        codes, table = small_trace.codes, small_trace.table
        assert codes.dtype == np.uint32 and codes.flags.c_contiguous
        assert codes.nbytes == 4 * len(small_trace)
        # A few hundred static events, against 25k dynamic ones.
        assert len(table.pcs) < len(small_trace) // 10
        held = codes.nbytes + sum(column.nbytes for column in table)
        assert held <= 4 * len(small_trace) + 18 * len(table.pcs)

    def test_views_share_the_codes_and_the_table(self, small_trace):
        views = [
            small_trace.head(1_000),
            small_trace.slice(2_000, 9_000),
            *small_trace.stride_split(3),
            small_trace.stride_split(2)[1].slice(10, 500),
        ]
        for view in views:
            assert np.shares_memory(view.codes, small_trace.codes)
            assert view.table is small_trace.table
        part = small_trace.stride_split(3)[1]
        assert np.array_equal(part.pcs, small_trace.pcs[1::3])
        assert np.array_equal(part.targets, small_trace.targets[1::3])
        assert part.conditional_count == int(small_trace.conditionals[1::3].sum())

    def test_columns_are_read_only_and_built_per_access(self, small_trace):
        for name in ("pcs", "takens", "conditionals", "targets"):
            column = getattr(small_trace, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1
            assert getattr(small_trace, name) is not column  # not cached
        assert not small_trace.codes.flags.writeable
        for column in small_trace.table:
            assert not column.flags.writeable

    def test_summaries_read_the_table(self, small_trace):
        conditionals = small_trace.conditionals.astype(bool)
        assert small_trace.conditional_count == int(conditionals.sum())
        assert small_trace.static_conditional_count == len(
            np.unique(small_trace.pcs[conditionals])
        )
        assert small_trace.taken_ratio == pytest.approx(
            small_trace.takens[conditionals].mean()
        )

    def test_unused_table_rows_are_not_counted(self):
        # A view may use only some rows of the table it shares.
        trace = Trace.from_records(_records())
        tail = trace.slice(2, 4)
        assert tail.static_conditional_count == 2
        assert tail.conditional_count == 2
        assert trace.slice(1, 2).static_conditional_count == 0

    def test_from_table_refuses_a_code_past_the_table(self):
        table = (
            np.array([4, 8], np.uint64),
            np.array([1, 0], np.uint8),
            np.array([1, 1], np.uint8),
            np.zeros(2, np.uint64),
        )
        trace = Trace.from_table(np.array([1, 0, 1], np.uint32), *table)
        assert trace.pcs.tolist() == [8, 4, 8]
        with pytest.raises(ValueError, match="code 2 is past"):
            Trace.from_table(np.array([0, 2], np.uint32), *table)
        with pytest.raises(ValueError, match="uint32"):
            Trace.from_table(np.array([0, 1], np.int64), *table)
        with pytest.raises(ValueError, match="takens"):
            Trace.from_table(
                np.array([0], np.uint32), table[0], np.array([1, 2]),
                *table[2:],
            )

    @given(
        events=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 7), st.integers(0, 2**64 - 1),
                    st.sampled_from([0, 2**63, 2**64 - 1]),
                ),
                st.booleans(),
                st.booleans(),
                st.one_of(st.just(0), st.integers(0, 2**64 - 1)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_explicit_columns_round_trip_through_factorisation(self, events):
        pcs = np.array([e[0] for e in events], np.uint64)
        takens = np.array([e[1] for e in events], np.uint8)
        conditionals = np.array([e[2] for e in events], np.uint8)
        targets = np.array([e[3] for e in events], np.uint64)
        trace = Trace(pcs, takens, conditionals, targets)
        for built, given_column in zip(
            _columns_of(trace), (pcs, takens, conditionals, targets)
        ):
            assert built.dtype == given_column.dtype
            assert np.array_equal(built, given_column)
        assert list(trace) == [
            BranchRecord(int(p), bool(t), bool(c), int(g)) for p, t, c, g in events
        ]
        # One row per distinct event, every row used.
        assert len(trace.table.pcs) == len(set(events))
        assert len(set(trace.codes.tolist())) == len(set(events))
        no_targets = Trace(pcs, takens, conditionals)
        assert not no_targets.targets.any()
        assert np.array_equal(no_targets.pcs, pcs)


class TestColumnLists:
    # bias_density on small_trace, pinned when it read four int lists;
    # it must leave nothing on the trace.
    BIAS = {
        0: {"static_taken_bias": 0.6987951807228916,
            "dynamic_taken_ratio": 0.7558658134574365},
        4: {"static_taken_bias": 0.7378048780487805,
            "dynamic_taken_ratio": 0.7558658134574365},
        12: {"static_taken_bias": 0.7423312883435583,
             "dynamic_taken_ratio": 0.7558658134574365},
    }

    @pytest.mark.parametrize("history_bits", sorted(BIAS))
    def test_bias_density_builds_no_targets_list(self, history_bits, small_trace):
        trace = small_trace.slice(0, len(small_trace))
        before = {name: id(value) for name, value in vars(trace).items()}
        assert bias_density(trace, history_bits) == self.BIAS[history_bits]
        assert {name: id(value) for name, value in vars(trace).items()} == before
        assert not hasattr(trace, "columns")


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
