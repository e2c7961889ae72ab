"""Shard/tenant mechanics: batching, lifecycle, invariance.

Events are buffered one request's columns at a time
(:meth:`Shard.append`); these tests append one event per call, the
finest batching a client can ask for."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.state as state_module
from repro.serving.protocol import EventColumns
from repro.serving.shard import Shard
from repro.sim.config import make_predictor
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy


def _event(pc, taken, conditional=True):
    """One event as a request's columns."""
    return EventColumns(
        np.array([pc], dtype=np.uint64),
        np.array([taken], dtype=np.uint8),
        np.array([conditional], dtype=np.uint8),
    )


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
            shard.append("ghost", _event(4, True))
        with pytest.raises(KeyError, match="ghost"):
            shard.flush("ghost")

    def test_push_signals_full_batch_and_flush_drains(self):
        shard = Shard(batch_size=4)
        shard.open("s", "bimodal:64")
        assert [shard.append("s", _event(4 * i, True)) for i in range(3)] == [
            False, False, False,
        ]
        assert shard.append("s", _event(12, False)) is True
        assert shard.flush("s") == 4
        assert shard.tenant("s").pending == 0
        assert shard.tenant("s").conditional_branches == 4

    def test_close_flushes_and_reports(self):
        shard = Shard(batch_size=100)
        shard.open("s", "bimodal:64")
        for i in range(10):
            shard.append("s", _event(4 * (i % 3), i % 2 == 0))
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
            if shard.append("s", EventColumns.of(trace.slice(i, i + 1))):
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
            if shard.append("s", EventColumns.of(trace.slice(i, i + 1))):
                shard.flush("s")
        shard.flush("s")
        reference = make_predictor(spec)
        simulate_fast(reference, trace, label=spec)
        assert (
            PredictorState.capture(tenant.predictor).digest()
            == PredictorState.capture(reference).digest()
        )


class TestFlushCost:
    def test_a_flush_computes_no_digest(self, monkeypatch):
        # The flush's rollback snapshot is only ever restored in-process,
        # so its SHA-256 trailer is never computed; asking the same kind
        # of capture for its digest still hashes it.
        hashes = []

        class CountingHashlib:
            @staticmethod
            def sha256(*args):
                hashes.append(args)
                return hashlib.sha256(*args)

        monkeypatch.setattr(state_module, "hashlib", CountingHashlib)
        shard = Shard(batch_size=4)
        tenant = shard.open("s", "gshare:64k:h16")
        for i in range(8):
            if shard.append("s", _event(4 * i, i % 3 == 0)):
                shard.flush("s")
        assert shard.flushes == 2 and tenant.pending == 0
        assert hashes == []
        digest = tenant.snapshot().digest()
        assert len(hashes) == 1
        monkeypatch.undo()
        reference = make_predictor("gshare:64k:h16")
        pcs, takens = [4 * i for i in range(8)], [i % 3 == 0 for i in range(8)]
        simulate_fast(reference, Trace.from_columns(pcs, takens, [True] * 8))
        assert digest == PredictorState.capture(reference).digest()
