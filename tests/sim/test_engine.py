"""Tests for the trace-driven simulation engine."""

import tracemalloc

import numpy as np
import pytest

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.static import AlwaysTakenPredictor
from repro.sim.config import make_predictor
from repro.sim.engine import miss_stream, simulate
from repro.traces.trace import BranchRecord, Trace


def _trace(records):
    return Trace.from_records(records, name="crafted")


class TestCounting:
    def test_always_taken_counts_not_takens(self):
        trace = _trace(
            [
                BranchRecord(pc=0x100, taken=True),
                BranchRecord(pc=0x104, taken=False),
                BranchRecord(pc=0x108, taken=False),
            ]
        )
        result = simulate(AlwaysTakenPredictor(), trace)
        assert result.conditional_branches == 3
        assert result.mispredictions == 2
        assert result.misprediction_ratio == pytest.approx(2 / 3)

    def test_unconditionals_not_scored(self):
        trace = _trace(
            [
                BranchRecord(pc=0x100, taken=False, conditional=False),
                BranchRecord(pc=0x104, taken=False, conditional=True),
            ]
        )
        result = simulate(AlwaysTakenPredictor(), trace)
        assert result.conditional_branches == 1
        assert result.mispredictions == 1

    def test_unconditionals_shift_history(self):
        """gshare prediction after an unconditional must reflect it."""
        trace_records = [
            BranchRecord(pc=0x104, taken=True, conditional=False),
            BranchRecord(pc=0x100, taken=True, conditional=True),
        ]
        predictor = GsharePredictor(index_bits=6, history_bits=4)
        simulate(predictor, _trace(trace_records))
        assert predictor.history.value == 0b11

    def test_hand_computed_bimodal(self):
        """Exact misprediction count for a known 2-bit counter walk."""
        outcomes = [False, False, True, False, False]
        trace = _trace(
            [BranchRecord(pc=0x100, taken=t) for t in outcomes]
        )
        result = simulate(BimodalPredictor(index_bits=4), trace)
        # Counter walk from weakly-taken (2):
        #  predict T (2) vs F -> miss, counter 1
        #  predict F (1) vs F -> hit, counter 0
        #  predict F (0) vs T -> miss, counter 1
        #  predict F (1) vs F -> hit, counter 0
        #  predict F (0) vs F -> hit, counter 0
        assert result.mispredictions == 2

    def test_empty_trace(self):
        result = simulate(AlwaysTakenPredictor(), _trace([]))
        assert result.conditional_branches == 0
        assert result.misprediction_ratio == 0.0


class TestMissStream:
    def test_one_byte_per_conditional_branch(self):
        trace = _trace(
            [
                BranchRecord(pc=0x100, taken=True),
                BranchRecord(pc=0x104, taken=False, conditional=False),
                BranchRecord(pc=0x108, taken=False),
                BranchRecord(pc=0x10C, taken=True),
            ]
        )
        missed = miss_stream(AlwaysTakenPredictor(), trace)
        assert missed.dtype == np.uint8
        assert missed.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("warmup", [0, 1, 500, 10**6])
    def test_simulate_counts_the_stream(self, warmup, tiny_trace):
        missed = miss_stream(GsharePredictor(6, 4), tiny_trace)
        result = simulate(GsharePredictor(6, 4), tiny_trace, warmup=warmup)
        assert result.conditional_branches == max(0, len(missed) - warmup)
        assert result.mispredictions == int(missed[warmup:].sum())


class TestMemory:
    """The interpreter holds one chunk of codes and the table's rows,
    plus its one-byte-per-branch miss stream: nothing per event is kept
    on the trace or built up front."""

    @staticmethod
    def _peak(spec, trace):
        """Peak traced bytes of one generic ``simulate`` call."""
        simulate(make_predictor(spec), trace.head(10))  # warm imports
        predictor = make_predictor(spec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            simulate(predictor, trace)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_generic_peak_is_a_byte_per_conditional_event(self):
        rng = np.random.default_rng(11)
        length = 600_000
        trace = Trace(
            4 * rng.integers(0, 1 << 12, length, dtype=np.uint64),
            rng.integers(0, 2, length, dtype=np.uint8),
            (rng.random(length) < 0.85).astype(np.uint8),
            name="long",
        )
        short = self._peak("gshare:4k:h12", trace.head(6_000))
        long = self._peak("gshare:4k:h12", trace)
        assert long - short <= trace.conditional_count + (1 << 20), (short, long)


class TestWarmup:
    def test_warmup_excludes_initial_branches(self):
        trace = _trace(
            [BranchRecord(pc=0x100, taken=False)] * 10
        )
        cold = simulate(BimodalPredictor(4), trace)
        warm = simulate(BimodalPredictor(4), trace, warmup=2)
        assert cold.mispredictions == 1  # weakly-taken start costs one
        assert warm.mispredictions == 0
        assert warm.conditional_branches == 8

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            simulate(AlwaysTakenPredictor(), _trace([]), warmup=-1)


class TestResultMetadata:
    def test_labels_and_storage(self, tiny_trace):
        predictor = GsharePredictor(6, 4)
        result = simulate(predictor, tiny_trace, label="my-gshare")
        assert result.predictor == "my-gshare"
        assert result.trace == tiny_trace.name
        assert result.storage_bits == predictor.storage_bits
        assert result.history_bits == 4

    def test_default_label_is_scheme_name(self, tiny_trace):
        result = simulate(GsharePredictor(6, 4), tiny_trace)
        assert result.predictor == "gshare"

    def test_accuracy_complementarity(self, tiny_trace):
        result = simulate(GsharePredictor(6, 4), tiny_trace)
        assert result.accuracy == pytest.approx(
            1.0 - result.misprediction_ratio
        )

    def test_str_rendering(self, tiny_trace):
        text = str(simulate(GsharePredictor(6, 4), tiny_trace))
        assert "gshare" in text
        assert "misprediction" in text
