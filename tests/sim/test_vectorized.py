"""Equivalence tests: the vectorized engine vs the generic engine.

The vectorized engine precomputes per-bank index streams with numpy and
must be *bit-identical* to ``repro.sim.engine.simulate`` — same
SimulationResult, same final counter values, same agree-bias bits, same
final history register — for every supported predictor family, across
all three gskew update policies, and on hand-built degenerate traces.
Unsupported predictors must fall back cleanly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.egskew import EnhancedSkewedPredictor
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.vectorized import (
    history_stream,
    simulate_fast,
    simulate_vectorized,
    supports,
)
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

#: Every spec family the vectorized engine claims to support, including
#: all three skewed-update policies, 1/3/5-bank gskew, gshare history
#: folding (h > index bits), 1-bit counters and agree.
SUPPORTED_SPECS = [
    "bimodal:256",
    "bimodal:256:c1",
    "gshare:256:h4",
    "gshare:256:h8",  # history == index bits (pure XOR)
    "gshare:64:h10",  # history > index bits (XOR folding)
    "gshare:256:h0",  # degenerate: PC-indexed
    "gshare:1:h4",  # degenerate: one entry (index bits = 0, hung once)
    "gshare:256:h4:c1",
    "gselect:256:h4",
    "gselect:1:h4",  # degenerate: one entry
    "gselect:256:h6:c1",
    "gskew:1x256:h6:partial",
    "gskew:1x256:h6:lazy",
    "gskew:3x256:h6:partial",
    "gskew:3x256:h6:total",
    "gskew:3x256:h6:lazy",
    "gskew:3x256:h6:partial:c1",
    "gskew:5x128:h6:partial",
    "gskew:5x128:h6:total",
    "egskew:3x256:h6:partial",
    "egskew:3x256:h6:total",
    "egskew:3x256:h6:lazy",
    "agree:256:h6",
    "agree:64:h10",  # history > index bits (XOR folding)
    "agree:1:h4",  # degenerate: one PHT entry, one biasing bit
    # Wide geometries: tables past 2**16 entries and histories past 32
    # bits, where a narrowed word in the index arithmetic would truncate.
    "gshare:256k:h16",
    "gshare:1k:h40",  # 40-bit register folded into a 10-bit index
    "gselect:256k:h20",
    "gskew:3x64k:h40:partial",  # 56-bit information vector
    "egskew:3x64k:h40:total",
    "agree:64k:h34",
]

UNSUPPORTED_SPECS = [
    "fa:64:h4",
    "unaliased:h6",
]


def _counter_state(predictor):
    """Snapshot every saturating counter (and agree's biasing bits)."""
    if hasattr(predictor, "banks"):
        return [list(bank.counters.values) for bank in predictor.banks]
    if hasattr(predictor, "bank"):
        return [list(predictor.bank.counters.values)]
    if hasattr(predictor, "pht"):
        return [list(predictor.pht.counters.values), list(predictor._bias)]
    return None


def _history_state(predictor):
    history = getattr(predictor, "history", None)
    return None if history is None else history.value


class TestEquivalence:
    @pytest.mark.parametrize("spec", SUPPORTED_SPECS)
    def test_identical_to_generic_engine(self, spec, small_trace):
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        assert supports(candidate, small_trace), spec

        expected = simulate(reference, small_trace, label=spec)
        actual = simulate_vectorized(candidate, small_trace, label=spec)

        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)
        assert _history_state(candidate) == _history_state(reference)

    @pytest.mark.parametrize("warmup", [1, 137, 10**9])
    def test_warmup_equivalence(self, warmup, tiny_trace):
        spec = "gskew:3x128:h5:partial"
        expected = simulate(make_predictor(spec), tiny_trace, warmup=warmup)
        actual = simulate_vectorized(
            make_predictor(spec), tiny_trace, warmup=warmup
        )
        assert actual == expected

    @pytest.mark.parametrize("warmup", [1, 137, 10**9])
    def test_agree_warmup_equivalence(self, warmup, tiny_trace):
        # Warmup events latch biasing bits and train the PHT but are not
        # scored; the state they leave must match the generic engine's.
        reference = make_predictor("agree:128:h5")
        candidate = make_predictor("agree:128:h5")
        expected = simulate(reference, tiny_trace, warmup=warmup)
        actual = simulate_vectorized(candidate, tiny_trace, warmup=warmup)
        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)

    def test_egskew_bank0_history_ablation(self, tiny_trace):
        reference = EnhancedSkewedPredictor(
            bank_index_bits=7, history_bits=5, bank0_history_bits=3
        )
        candidate = EnhancedSkewedPredictor(
            bank_index_bits=7, history_bits=5, bank0_history_bits=3
        )
        assert supports(candidate, tiny_trace)
        expected = simulate(reference, tiny_trace)
        actual = simulate_vectorized(candidate, tiny_trace)
        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)


#: Hand-built corner traces: empty, single event, a run of two, pure
#: bias, strict alternation.
DEGENERATE_TRACES = {
    "empty": ([], []),
    "one-taken": ([0x40], [1]),
    "one-not-taken": ([0x40], [0]),
    "two-same-slot": ([0x40, 0x40], [1, 0]),
    "all-taken": ([0x40, 0x44, 0x40, 0x44, 0x40], [1, 1, 1, 1, 1]),
    "alternating": ([0x40] * 8, [1, 0, 1, 0, 1, 0, 1, 0]),
}


class TestDegenerateTraces:
    @pytest.mark.parametrize("name", sorted(DEGENERATE_TRACES))
    @pytest.mark.parametrize(
        "spec", ["bimodal:4", "gshare:8:h3", "gskew:3x8:h3:total", "agree:8:h3"]
    )
    def test_matches_generic_engine(self, name, spec):
        pcs, takens = DEGENERATE_TRACES[name]
        trace = Trace.from_columns(
            pcs, takens, [1] * len(pcs), name=f"degenerate-{name}"
        )
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, trace)
        actual = simulate_vectorized(candidate, trace)
        assert actual == expected
        assert _counter_state(candidate) == _counter_state(reference)

    def test_unconditionals_only(self):
        trace = Trace.from_columns([0x40, 0x44], [1, 1], [0, 0])
        spec = "gshare:8:h3"
        reference = make_predictor(spec)
        candidate = make_predictor(spec)
        expected = simulate(reference, trace)
        actual = simulate_vectorized(candidate, trace)
        assert actual == expected
        assert actual.conditional_branches == 0
        assert _history_state(candidate) == _history_state(reference)


class TestFuzzEquivalence:
    @given(
        spec=st.sampled_from(
            [
                "bimodal:8",
                "gshare:16:h4",
                "gselect:16:h3",
                "gskew:3x16:h3:total",
                "gskew:3x16:h3:partial",
                "gskew:3x16:h3:lazy",
                "egskew:3x16:h3:partial",
                "agree:16:h3",
            ]
        ),
        trace=trace_strategy(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_match_generic_engine(self, spec, trace):
        expected = simulate(make_predictor(spec), trace)
        actual = simulate_vectorized(make_predictor(spec), trace)
        assert actual == expected


class TestDispatch:
    @pytest.mark.parametrize("spec", UNSUPPORTED_SPECS)
    def test_unsupported_predictors_are_rejected(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        assert not supports(predictor, tiny_trace)
        with pytest.raises(ValueError, match="no vectorized path"):
            simulate_vectorized(predictor, tiny_trace)

    @pytest.mark.parametrize("spec", UNSUPPORTED_SPECS)
    def test_simulate_fast_falls_back(self, spec, tiny_trace):
        expected = simulate(make_predictor(spec), tiny_trace, label=spec)
        actual = simulate_fast(make_predictor(spec), tiny_trace, label=spec)
        assert actual == expected

    def test_custom_skew_family_falls_back(self, tiny_trace):
        from repro.core.gskew import SkewedPredictor
        from repro.core.skew import skew_function_family

        functions = skew_function_family(7, banks=3)
        predictor = SkewedPredictor(
            bank_index_bits=7, history_bits=5, functions=functions
        )
        # Explicit functions may be anything; the closed-form index
        # streams only cover the default family.
        assert not supports(predictor, tiny_trace)

    def test_negative_warmup_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="warmup"):
            simulate_vectorized(
                make_predictor("bimodal:64"), tiny_trace, warmup=-1
            )


class TestHistoryStream:
    def test_matches_scalar_shift_register(self):
        rng = np.random.default_rng(3)
        takens = rng.integers(0, 2, size=200, dtype=np.uint8)
        bits = 6
        stream = history_stream(takens, bits)

        value = 0
        mask = (1 << bits) - 1
        for i, taken in enumerate(takens):
            assert stream[i] == value
            value = ((value << 1) | int(taken)) & mask
        assert len(stream) == len(takens)

    def test_zero_bits(self):
        takens = np.array([1, 0, 1], dtype=np.uint8)
        assert history_stream(takens, 0).tolist() == [0, 0, 0]
