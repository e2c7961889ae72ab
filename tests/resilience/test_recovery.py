"""End-to-end recovery: every fault class heals with identical results.

The acceptance bar for the resilience layer is *byte-identity*: a run
that hit injected kernel or serving failures must produce
exactly the results of a fault-free run, with the recovery visible only
in warnings and counters.  These tests inject each fault class through
``REPRO_FAULTS`` and compare against clean baselines.
"""

from __future__ import annotations

import warnings

import pytest

import repro.serving.shard as shard_module
import repro.sim.native as native_module
import repro.sim.vectorized as vectorized_module
from repro.resilience.faults import InjectedFault, reset_faults
from repro.serving.protocol import EventColumns, decode_request, encode_message
from repro.serving.shard import RETRY_LIMIT, Shard
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import native_available
from repro.sim.state import PredictorState
from repro.sim.vectorized import WalkInterrupted, simulate_fast

#: One spec per dispatch path: index-expressible (native, or the
#: vectorized loop without a compiler) as an always-update table, a
#: coupled multi-bank LAZY walk and agree.
TABLE_SPEC = "gshare:512:h8"
LAZY_SPEC = "gskew:3x64:h4:lazy"
AGREE_SPEC = "agree:128:h6"
#: The fully-associative LRU table: native, else generic (no Python walk).
LRU_SPEC = "fa:16:h3"


@pytest.fixture
def without_native(monkeypatch):
    """Take the native tier out of the ladder, as on a host without a
    C compiler."""
    monkeypatch.setattr(native_module, "native_available", lambda: False)


def _clean_fast(spec, trace):
    """A fault-free ``simulate_fast`` baseline (result, final state)."""
    predictor = make_predictor(spec)
    result = simulate_fast(predictor, trace, label=spec)
    return result, PredictorState.capture(predictor)


class TestKernelDegradation:
    def test_native_failure_degrades_bit_identically(
        self, fault_env, tiny_trace
    ):
        if not native_available():
            pytest.skip("native backend unavailable; tier not in the ladder")
        expected, expected_state = _clean_fast(TABLE_SPEC, tiny_trace)
        fault_env("kernel-native@1")
        predictor = make_predictor(TABLE_SPEC)
        with pytest.warns(RuntimeWarning, match="native engine failed"):
            degraded = simulate_fast(predictor, tiny_trace, label=TABLE_SPEC)
        assert degraded == expected
        assert degraded.engine == "vectorized"  # one-level degradation
        assert PredictorState.capture(predictor) == expected_state

    @pytest.mark.parametrize("spec", [LAZY_SPEC, AGREE_SPEC])
    def test_native_failure_degrades_to_the_loop(
        self, fault_env, tiny_trace, spec
    ):
        # The coupled LAZY walk and agree's bias latches are the state
        # a half-finished native walk could leave behind; the loop must
        # start from the untouched predictor.
        if not native_available():
            pytest.skip("native backend unavailable; tier not in the ladder")
        expected, expected_state = _clean_fast(spec, tiny_trace)
        fault_env("kernel-native@1")
        predictor = make_predictor(spec)
        with pytest.warns(RuntimeWarning, match="native engine failed"):
            degraded = simulate_fast(predictor, tiny_trace, label=spec)
        assert degraded == expected
        assert degraded.engine == "vectorized"
        assert PredictorState.capture(predictor) == expected_state

    def test_lru_native_failure_degrades_to_the_generic_engine(
        self, fault_env, tiny_trace
    ):
        if not native_available():
            pytest.skip("native backend unavailable; tier not in the ladder")
        expected, expected_state = _clean_fast(LRU_SPEC, tiny_trace)
        fault_env("kernel-native@1")
        predictor = make_predictor(LRU_SPEC)
        with pytest.warns(RuntimeWarning, match="native engine failed"):
            degraded = simulate_fast(predictor, tiny_trace, label=LRU_SPEC)
        assert degraded == expected
        assert degraded.engine == "generic"
        assert PredictorState.capture(predictor) == expected_state

    def test_vectorized_failure_degrades_bit_identically(
        self, fault_env, tiny_trace, without_native
    ):
        # Without the native tier, the loop is this spec's first tier.
        expected, expected_state = _clean_fast(LAZY_SPEC, tiny_trace)
        fault_env("kernel-vectorized@1")
        predictor = make_predictor(LAZY_SPEC)
        with pytest.warns(RuntimeWarning, match="vectorized engine failed"):
            degraded = simulate_fast(predictor, tiny_trace, label=LAZY_SPEC)
        assert degraded == expected
        assert degraded.engine == "generic"
        # The failed tier left no partial work behind: the surviving
        # tier left the same final counters and history as a clean run.
        assert PredictorState.capture(predictor) == expected_state

    @pytest.mark.parametrize("spec", [TABLE_SPEC, LAZY_SPEC, AGREE_SPEC])
    def test_native_walk_refused_by_the_kernel_degrades_bit_identically(
        self, monkeypatch, tiny_trace, spec
    ):
        # The kernel refuses a geometry (-1) before its first write, so
        # the next tier starts from the untouched predictor.
        if not native_available():
            pytest.skip("native backend unavailable; tier not in the ladder")
        expected, expected_state = _clean_fast(spec, tiny_trace)
        ffi, _ = native_module._backend()

        class RefusingKernel:
            def repro_walk(self, *args):
                return -1

            def repro_walk_agree(self, *args):
                return -1

        monkeypatch.setattr(
            native_module, "_backend", lambda: (ffi, RefusingKernel())
        )
        predictor = make_predictor(spec)
        with pytest.warns(RuntimeWarning, match="native engine failed"):
            degraded = simulate_fast(predictor, tiny_trace, label=spec)
        assert degraded == expected
        assert degraded.engine == "vectorized"
        assert PredictorState.capture(predictor) == expected_state

    @pytest.mark.parametrize("spec", [TABLE_SPEC, LAZY_SPEC, AGREE_SPEC])
    def test_native_walk_failing_mid_walk_is_not_degraded(
        self, monkeypatch, tiny_trace, spec
    ):
        # The kernel-* sites fire before a tier starts; here the C walk
        # runs to the end, writing the predictor's tables in place, and
        # only then raises.  No tier can resume from partly trained
        # tables, so the failure propagates instead of degrading to a
        # silently wrong result.
        if not native_available():
            pytest.skip("native backend unavailable; tier not in the ladder")
        ffi, lib = native_module._backend()

        class HalfDoneKernel:
            def repro_walk(self, *args):
                lib.repro_walk(*args)
                raise RuntimeError("kernel died after writing")

            def repro_walk_agree(self, *args):
                lib.repro_walk_agree(*args)
                raise RuntimeError("kernel died after writing")

        monkeypatch.setattr(
            native_module, "_backend", lambda: (ffi, HalfDoneKernel())
        )
        predictor = make_predictor(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degradation warning
            with pytest.raises(WalkInterrupted, match="kernel died"):
                simulate_fast(predictor, tiny_trace, label=spec)
        fresh = PredictorState.capture(make_predictor(spec))
        assert PredictorState.capture(predictor) != fresh  # it did write

    @pytest.mark.parametrize(
        "spec,loop", [(TABLE_SPEC, "_loop_single"), (AGREE_SPEC, "_loop_agree")]
    )
    def test_python_walk_failing_mid_walk_is_not_degraded(
        self, monkeypatch, tiny_trace, without_native, spec, loop
    ):
        # The same for the Python walk: its loop trains the tables it
        # was handed to the end, then raises; the generic tier must not
        # run from those tables.
        inner = getattr(vectorized_module, loop)

        def half_done(*args):
            inner(*args)
            raise RuntimeError("loop died after writing")

        monkeypatch.setattr(vectorized_module, loop, half_done)
        predictor = make_predictor(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WalkInterrupted, match="loop died"):
                simulate_fast(predictor, tiny_trace, label=spec)
        fresh = PredictorState.capture(make_predictor(spec))
        assert PredictorState.capture(predictor) != fresh

    def test_all_fast_tiers_failing_reaches_the_generic_engine(
        self, fault_env, tiny_trace
    ):
        reference = simulate(
            make_predictor(TABLE_SPEC), tiny_trace, label=TABLE_SPEC
        )
        fault_env("kernel-native@1,kernel-vectorized@1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = simulate_fast(
                make_predictor(TABLE_SPEC), tiny_trace, label=TABLE_SPEC
            )
        assert degraded == reference
        assert degraded.engine == "generic"
        messages = [str(w.message) for w in caught]
        assert any("vectorized engine failed" in m for m in messages)
        if native_available():
            assert any("native engine failed" in m for m in messages)

    def test_fault_consumed_then_clean(
        self, fault_env, tiny_trace, without_native
    ):
        """A one-arrival window fires once; the next call is fault-free."""
        expected, _ = _clean_fast(TABLE_SPEC, tiny_trace)
        fault_env("kernel-vectorized@1")
        with pytest.warns(RuntimeWarning):
            simulate_fast(
                make_predictor(TABLE_SPEC), tiny_trace, label=TABLE_SPEC
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean = simulate_fast(
                make_predictor(TABLE_SPEC), tiny_trace, label=TABLE_SPEC
            )
        assert clean == expected


class TestServingShardRecovery:
    """The ``serving-shard`` site: crash-mid-batch, rollback, replay."""

    SPEC = "gshare:128:h6"

    def _feed(self, shard, session, trace):
        for i in range(len(trace)):
            if shard.append(session, EventColumns.of(trace.slice(i, i + 1))):
                shard.flush(session)
        shard.flush(session)

    def _clean_serial(self, trace):
        predictor = make_predictor(self.SPEC)
        result = simulate_fast(predictor, trace, label=self.SPEC)
        return result, PredictorState.capture(predictor).digest()

    def test_crash_mid_batch_replays_byte_identically(
        self, fault_env, tiny_trace
    ):
        """One crash after the engine ran but before commit: the batch is
        rolled back to its pre-batch snapshot and replayed, and the whole
        stream still matches a fault-free serial run exactly."""
        expected, expected_digest = self._clean_serial(tiny_trace)
        fault_env("serving-shard@2")  # second flush dies mid-batch
        shard = Shard(batch_size=37)
        tenant = shard.open("s", self.SPEC)
        self._feed(shard, "s", tiny_trace)
        assert shard.replays == 1
        assert tenant.conditional_branches == expected.conditional_branches
        assert tenant.mispredictions == expected.mispredictions
        assert tenant.pending == 0
        assert (
            PredictorState.capture(tenant.predictor).digest()
            == expected_digest
        )

    def test_exhausted_retries_requeue_and_raise(self, fault_env, tiny_trace):
        """A persistently-dying flush surfaces the fault — with the batch
        back in the pending buffer and the predictor rolled back, so no
        event is lost and no partial batch is committed."""
        expected, expected_digest = self._clean_serial(tiny_trace)
        fault_env("serving-shard@1-")  # every flush arrival fails
        shard = Shard(batch_size=16)
        tenant = shard.open("s", self.SPEC)
        pre_digest = PredictorState.capture(tenant.predictor).digest()
        with pytest.raises(InjectedFault):
            self._feed(shard, "s", tiny_trace)
        assert tenant.pending == 16  # the whole batch, requeued in order
        assert tenant.conditional_branches == 0
        assert (
            PredictorState.capture(tenant.predictor).digest() == pre_digest
        )

        # Once the fault clears, the requeued stream drains to the exact
        # fault-free totals: crash recovery changed nothing observable.
        fault_env("")
        reset_faults()
        offset = tenant.events
        for i in range(offset, len(tiny_trace)):
            if shard.append("s", EventColumns.of(tiny_trace.slice(i, i + 1))):
                shard.flush("s")
        shard.flush("s")
        assert tenant.conditional_branches == expected.conditional_branches
        assert tenant.mispredictions == expected.mispredictions
        assert (
            PredictorState.capture(tenant.predictor).digest()
            == expected_digest
        )

    def test_shard_flush_continues_past_a_failing_tenant(
        self, fault_env, tiny_trace
    ):
        """A flush of every tenant (the linger timer's) does not stop at
        the tenant whose batch keeps crashing: the tenants after it still
        flush, then the first fault is re-raised."""
        first, second = tiny_trace.slice(0, 40), tiny_trace.slice(40, 90)
        shard = Shard(batch_size=1000)
        for session, trace in (("a", first), ("b", second)):
            shard.open(session, self.SPEC)
            shard.append(session, EventColumns.of(trace))
        fault_env(f"serving-shard@1-{RETRY_LIMIT + 1}")
        with pytest.raises(InjectedFault):
            shard.flush()
        failed, flushed = shard.tenant("a"), shard.tenant("b")
        assert failed.pending == len(first)
        assert failed.conditional_branches == 0
        expected, expected_digest = self._clean_serial(second)
        assert flushed.pending == 0
        assert flushed.mispredictions == expected.mispredictions
        assert (
            PredictorState.capture(flushed.predictor).digest()
            == expected_digest
        )
        assert shard.flush() == len(first)  # the fault window has passed
        expected, expected_digest = self._clean_serial(first)
        assert failed.mispredictions == expected.mispredictions
        assert (
            PredictorState.capture(failed.predictor).digest()
            == expected_digest
        )

    def test_engine_error_restores_and_requeues(self, monkeypatch, tiny_trace):
        """An engine error other than an injected fault is not replayed:
        the flush rewinds the predictor, keeps the batch pending and
        raises — even when the engine wrote state before failing."""
        shard = Shard(batch_size=1000)
        tenant = shard.open("s", self.SPEC)
        self._feed(shard, "s", tiny_trace.slice(0, 30))  # warm, flushed
        shard.append("s", EventColumns.of(tiny_trace.slice(30, 42)))
        pending = tenant.pending
        digest = PredictorState.capture(tenant.predictor).digest()

        def failing(predictor, trace, **kwargs):
            simulate(predictor, trace)  # trains the live predictor...
            raise ValueError("engine bug")  # ...then dies

        monkeypatch.setattr(shard_module, "simulate_fast", failing)
        with pytest.raises(ValueError, match="engine bug"):
            shard.flush("s")
        assert tenant.pending == pending == 12
        assert PredictorState.capture(tenant.predictor).digest() == digest
        assert shard.replays == 0
        assert tenant.batches == 1

    def test_replay_counter_visible_in_ring_stats(self, fault_env):
        from repro.serving.server import PredictionService

        fault_env("serving-shard@1")
        service = PredictionService(batch_size=4)
        service.handle({"op": "open", "session": "s", "spec": "bimodal:64"})
        message = {
            "op": "events",
            "session": "s",
            "events": [[4 * i, i % 2] for i in range(4)],
        }
        service.handle(decode_request(encode_message(message)))
        stats = service.handle({"op": "stats"})
        assert stats["ok"]
        assert stats["replays"] == 1
        assert stats["flushes"] == 1
