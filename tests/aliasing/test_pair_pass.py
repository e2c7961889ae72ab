"""The one pair pass: ids, last-use distances and direct-mapped misses.

:func:`repro.traces.pairs.pair_pass` has two backends, the C kernel's
``repro_pair_pass`` (:func:`repro.sim.native.pair_pass_native`) and the
numpy merge-counting and sorting kept for machines without a compiler
(``_pair_pass_numpy``).  Both are fuzzed here against the per-reference
instruments, which are the oracle: the
:class:`~repro.aliasing.distance.LastUseDistanceTracker` for distances,
a dict numbering pairs in order of first use for ids, and one
:class:`~repro.aliasing.tagged_table.TaggedDirectMappedTable` per table
(the tables ``measure_aliasing_reference`` walks) for misses.  The
kernel's cases skip where the backend did not build; the fallback's run
everywhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.native as native_module
import repro.traces.pairs as pairs_module
from repro.aliasing.distance import LastUseDistanceTracker
from repro.aliasing.tagged_table import TaggedDirectMappedTable
from repro.aliasing.three_cs import pair_index_fn, pair_stream
from repro.sim.native import native_available, pair_pass_native
from repro.traces.pairs import PairPass, pair_pass
from repro.traces.synthetic.workloads import ibs_trace
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

requires_native = pytest.mark.skipif(
    not native_available(),
    reason="native backend unavailable (no C compiler or no cffi); "
    "the numpy pass is fuzzed instead",
)

SCHEMES = ("bimodal", "gshare", "gselect")

#: Each backend as ``(trace, history_bits, tables) -> PairPass``.
BACKENDS = [
    pytest.param(pair_pass_native, marks=requires_native, id="native"),
    pytest.param(pairs_module._pair_pass_numpy, id="numpy"),
]

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "sweep_memory.py"


def _oracle(trace, history_bits, tables):
    """The pass, one reference at a time through the reference tables."""
    tracker = LastUseDistanceTracker(capacity=max(1, len(trace)))
    numbering = {}
    ids, distances = [], []
    instruments = [
        TaggedDirectMappedTable(1 << bits, pair_index_fn(scheme, bits, history_bits))
        for scheme, bits in tables
    ]
    for pair in pair_stream(trace, history_bits):
        ids.append(numbering.setdefault(pair, len(numbering)))
        distance = tracker.reference(pair)
        distances.append(-1 if distance is None else distance)
        for table in instruments:
            table.access(pair)
    return ids, distances, len(numbering), tuple(t.misses for t in instruments)


def _check(result, trace, history_bits, tables):
    assert isinstance(result, PairPass)
    assert result.ids.dtype == np.uint32
    assert result.distances.dtype == np.int32
    ids, distances, pairs, misses = _oracle(trace, history_bits, tables)
    assert result.ids.tolist() == ids
    assert result.distances.tolist() == distances
    assert result.pairs == pairs
    assert result.misses == misses


def _repeated(pcs, takens=None, conditionals=None, name="cases"):
    pcs = np.asarray(pcs, dtype=np.uint64)
    return Trace(
        pcs,
        np.ones(len(pcs), np.uint8) if takens is None else takens,
        np.ones(len(pcs), np.uint8) if conditionals is None else conditionals,
        name=name,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestAgainstReferenceInstruments:
    # History 0 and 63, index widths from a one-entry table up, gshare
    # folding a history longer than its index, and tables of every scheme
    # side by side.
    @given(
        trace=trace_strategy(max_length=300),
        history_bits=st.sampled_from([0, 1, 4, 9, 33, 63]),
        tables=st.lists(
            st.tuples(st.sampled_from(SCHEMES), st.integers(0, 10)), max_size=4
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_traces(self, backend, trace, history_bits, tables):
        _check(backend(trace, history_bits, tables), trace, history_bits, tables)

    @pytest.mark.parametrize("history_bits", [0, 63])
    def test_empty_trace(self, backend, history_bits):
        trace = Trace.from_records([], name="empty")
        result = backend(trace, history_bits, [("gshare", 4)])
        assert (len(result.ids), len(result.distances)) == (0, 0)
        assert (result.pairs, result.misses) == (0, (0,))

    def test_all_unconditional_trace(self, backend):
        trace = _repeated(
            [0x40, 0x80, 0x40], conditionals=np.zeros(3, np.uint8), name="jumps"
        )
        result = backend(trace, 4, [("gselect", 2), ("bimodal", 0)])
        assert (len(result.ids), result.pairs, result.misses) == (0, 0, (0, 0))

    def test_one_pair_repeated(self, backend):
        trace = _repeated([0x1000] * 500, name="one-pair")
        tables = [("gshare", 0), ("gselect", 3)]
        result = backend(trace, 0, tables)
        assert result.ids.tolist() == [0] * 500
        assert result.distances.tolist() == [-1] + [0] * 499
        assert (result.pairs, result.misses) == (1, (1, 1))
        _check(result, trace, 0, tables)

    def test_one_entry_tables(self, backend, tiny_trace):
        tables = [(scheme, 0) for scheme in SCHEMES]
        _check(backend(tiny_trace, 6, tables), tiny_trace, 6, tables)

    @pytest.mark.parametrize("history_bits", [13, 40, 63])
    def test_gshare_history_longer_than_its_index(
        self, backend, small_trace, history_bits
    ):
        tables = [("gshare", 5), ("gshare", 12), ("gselect", 5)]
        _check(
            backend(small_trace, history_bits, tables),
            small_trace, history_bits, tables,
        )

    def test_more_than_65536_distinct_pairs(self, backend):
        # Ids and tags past 16 bits: 70,000 distinct words, twice over.
        words = np.arange(70_000, dtype=np.uint64)
        trace = _repeated(np.tile(words << np.uint64(2), 2), name="wide")
        result = backend(trace, 0, [("bimodal", 17)])
        assert result.pairs == 70_000
        assert int(result.ids.max()) == 69_999
        assert result.distances[70_000:].tolist() == [69_999] * 70_000
        _check(result, trace, 0, [("bimodal", 17)])


@requires_native
class TestKernelAgainstFallback:
    """The kernel against the numpy pass it replaces, array for array, on
    longer traces than the per-reference oracle affords."""

    @given(
        trace=trace_strategy(max_length=3_000),
        history_bits=st.integers(0, 63),
        tables=st.lists(
            st.tuples(st.sampled_from(SCHEMES), st.integers(0, 16)), max_size=6
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_traces(self, trace, history_bits, tables):
        expected = pairs_module._pair_pass_numpy(trace, history_bits, tables)
        actual = pair_pass_native(trace, history_bits, tables)
        assert np.array_equal(actual.ids, expected.ids)
        assert np.array_equal(actual.distances, expected.distances)
        assert actual[2:] == expected[2:]

    @pytest.mark.parametrize("name", ["nroff", "real_gcc"])
    def test_clones(self, name):
        trace = ibs_trace(name, 0.1)
        tables = [(s, b) for b in (5, 10, 13) for s in ("gshare", "gselect")]
        expected = pairs_module._pair_pass_numpy(trace, 12, tables)
        actual = pair_pass_native(trace, 12, tables)
        assert np.array_equal(actual.ids, expected.ids)
        assert np.array_equal(actual.distances, expected.distances)
        assert actual[2:] == expected[2:]

    def test_strided_view(self, small_trace):
        part = small_trace.stride_split(3)[1]
        assert not part.codes.flags.c_contiguous
        _check(pair_pass_native(part, 4, [("gshare", 6)]), part, 4, [("gshare", 6)])


class _ForbiddenKernel:
    """Stands in for the compiled ``lib`` where no call may reach it."""

    def repro_pair_pass(self, *args):  # pragma: no cover — would fail
        raise AssertionError("repro_pair_pass called with refused inputs")


class _PassThroughFFI:
    def from_buffer(self, ctype, array):
        return array


class TestWrapperChecks:
    """``pair_pass_native`` refuses what the kernel would misread, before
    the call (no compiler needed)."""

    @pytest.fixture(autouse=True)
    def forbid_kernel(self, monkeypatch):
        monkeypatch.setattr(
            native_module, "_BACKEND", (_PassThroughFFI(), _ForbiddenKernel())
        )

    def test_code_past_the_table_is_refused(self):
        trace = _repeated([0x40])
        trace._codes = np.array([0, 1], np.uint32)
        with pytest.raises(ValueError, match="code 1 is past"):
            pair_pass_native(trace, 4)

    @pytest.mark.parametrize(
        "history_bits, tables, match",
        [
            (64, [], "history bits"),
            (-1, [], "history bits"),
            (4, [("perceptron", 4)], "no 'perceptron' tables"),
            (4, [("gshare", 33)], "index bits"),
            (4, [("gselect", -1)], "index bits"),
        ],
    )
    def test_malformed_arguments_are_refused(self, history_bits, tables, match):
        with pytest.raises(ValueError, match=match):
            pair_pass_native(_repeated([0x40, 0x80]), history_bits, tables)


@requires_native
@pytest.mark.parametrize(
    "history_bits, scheme, bits, count",
    [
        (64, 1, 4, 2),  # a register past 63 bits
        (4, 3, 4, 2),  # the skewing family is not a 3Cs instrument
        (4, 1, 33, 2),  # indices past 32 bits
        (4, 2, -1, 2),
        (4, 1, 4, 1),  # more conditional events than room
    ],
)
def test_kernel_refuses_malformed_arguments(history_bits, scheme, bits, count):
    ffi, lib = native_module._backend()
    codes = np.array([0, 1], np.uint32)
    pcs = np.array([0x40, 0x80], np.uint64)
    flags = np.ones(2, np.uint8)
    ids = np.zeros(2, np.uint32)
    distances = np.zeros(2, np.int32)
    misses = np.zeros(1, np.int64)
    result = lib.repro_pair_pass(
        ffi.from_buffer("uint32_t[]", codes), 2,
        ffi.from_buffer("uint64_t[]", pcs),
        ffi.from_buffer("uint8_t[]", flags),
        ffi.from_buffer("uint8_t[]", flags),
        history_bits,
        ffi.from_buffer("uint32_t[]", ids),
        ffi.from_buffer("int32_t[]", distances),
        count, 1,
        ffi.from_buffer("int32_t[]", np.array([scheme], np.int32)),
        ffi.from_buffer("int32_t[]", np.array([bits], np.int32)),
        ffi.from_buffer("int64_t[]", misses),
    )
    assert result == -1


class TestDispatch:
    def test_refuses_before_either_backend(self, tiny_trace, monkeypatch):
        monkeypatch.setattr(native_module, "pair_pass_native", None)
        monkeypatch.setattr(pairs_module, "_pair_pass_numpy", None)
        for history_bits, tables in [
            (64, []), (4, [("perceptron", 4)]), (4, [("gshare", -1)])
        ]:
            with pytest.raises(ValueError):
                pair_pass(tiny_trace, history_bits, tables)

    @requires_native
    def test_runs_the_kernel_where_it_built(self, tiny_trace, monkeypatch):
        monkeypatch.setattr(pairs_module, "_pair_pass_numpy", None)
        _check(pair_pass(tiny_trace, 4, [("gshare", 8)]), tiny_trace, 4, [("gshare", 8)])

    def test_runs_numpy_without_the_kernel(self, tiny_trace, monkeypatch):
        monkeypatch.setattr(native_module, "native_available", lambda: False)
        monkeypatch.setattr(native_module, "pair_pass_native", None)
        _check(pair_pass(tiny_trace, 4, [("gshare", 8)]), tiny_trace, 4, [("gshare", 8)])

    def test_tables_past_32_index_bits_run_numpy(self, tiny_trace, monkeypatch):
        monkeypatch.setattr(native_module, "pair_pass_native", None)
        result = pair_pass(tiny_trace, 4, [("gselect", 40)])
        # Wider than any pair: each table entry holds one pair.
        assert result.misses == (result.pairs,)


@requires_native
def test_sweep_memory_is_bounded_per_event():
    # The sweep in a child process, measured in RSS, since the kernel's
    # buffers are invisible to tracemalloc: ids, distances and the
    # Fenwick tree are 12 bytes per conditional event, where the numpy
    # merge-counting grew about 170.
    done = subprocess.run(
        [sys.executable, str(TOOL), "nroff", "2", "1024", "4096"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    report = json.loads(done.stdout)
    assert report["native"] and report["conditional_events"] > 300_000
    assert report["growth_bytes_per_event"] < 16, report
