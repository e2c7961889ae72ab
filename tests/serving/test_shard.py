"""Shard/tenant mechanics: batching, lifecycle, invariance."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.shard import Shard
from repro.sim.config import make_predictor
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy


class TestTenantLifecycle:
    def test_open_is_idempotent_but_spec_conflicts_fail(self):
        shard = Shard(batch_size=8)
        tenant = shard.open("s", "bimodal:64")
        assert shard.open("s", "bimodal:64") is tenant
        with pytest.raises(ValueError, match="spec"):
            shard.open("s", "gshare:64:h5")

    def test_unknown_session_fails_loudly(self):
        shard = Shard(batch_size=8)
        with pytest.raises(KeyError, match="ghost"):
            shard.push("ghost", 4, True)
        with pytest.raises(KeyError, match="ghost"):
            shard.flush("ghost")

    def test_push_signals_full_batch_and_flush_drains(self):
        shard = Shard(batch_size=4)
        shard.open("s", "bimodal:64")
        assert [shard.push("s", 4 * i, True) for i in range(3)] == [
            False, False, False,
        ]
        assert shard.push("s", 12, False) is True
        assert shard.flush("s") == 4
        assert shard.tenant("s").pending == 0
        assert shard.tenant("s").conditional_branches == 4

    def test_close_flushes_and_reports(self):
        shard = Shard(batch_size=100)
        shard.open("s", "bimodal:64")
        for i in range(10):
            shard.push("s", 4 * (i % 3), i % 2 == 0)
        stats = shard.close("s")
        assert stats["conditional_branches"] == 10
        assert stats["events"] == 10
        assert stats["pending"] == 0
        with pytest.raises(KeyError):
            shard.tenant("s")


class TestBatchInvariance:
    """Flush boundaries must be invisible to results and final state."""

    @settings(max_examples=30, deadline=None)
    @given(
        trace=trace_strategy(max_length=150),
        batch_size=st.integers(1, 40),
        spec=st.sampled_from(
            ["bimodal:64", "gshare:64:h5", "gskew:3x64:h4:partial",
             "agree:64:h5", "gskew:1x64:h4:lazy"]
        ),
    )
    def test_any_batch_size_matches_one_serial_run(
        self, trace, batch_size, spec
    ):
        shard = Shard(batch_size=batch_size)
        shard.open("s", spec)
        for i in range(len(trace)):
            if shard.push(
                "s",
                int(trace.pcs[i]),
                bool(trace.takens[i]),
                bool(trace.conditionals[i]),
            ):
                shard.flush("s")
        stats = shard.close("s")

        reference = make_predictor(spec)
        result = simulate_fast(reference, trace, label=spec)
        assert stats["conditional_branches"] == result.conditional_branches
        assert stats["mispredictions"] == result.mispredictions

    def test_final_state_matches_serial_run(self):
        spec = "gshare:128:h7"
        trace = Trace.from_columns(
            [4 * (i % 37) for i in range(300)],
            [(i * 7) % 3 == 0 for i in range(300)],
            [i % 11 != 0 for i in range(300)],
            name="state-parity",
        )
        shard = Shard(batch_size=17)
        tenant = shard.open("s", spec)
        for i in range(len(trace)):
            if shard.push(
                "s",
                int(trace.pcs[i]),
                bool(trace.takens[i]),
                bool(trace.conditionals[i]),
            ):
                shard.flush("s")
        shard.flush("s")
        reference = make_predictor(spec)
        simulate_fast(reference, trace, label=spec)
        assert (
            PredictorState.capture(tenant.predictor).digest()
            == PredictorState.capture(reference).digest()
        )
