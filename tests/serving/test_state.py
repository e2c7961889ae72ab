"""PredictorState round-trip property tests.

The serving layer's whole crash/rollback/wire story rests on one
contract: ``capture → serialize → deserialize → restore`` is identity
for every predictor family, and anything short of a byte-perfect payload
fails loudly — state is never silently reset.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.state import (
    STATE_FORMAT,
    STATE_VERSION,
    PredictorState,
    StateError,
    StateFormatError,
    StateMismatchError,
)

from repro.traces.trace import Trace

from tests.strategies import STATE_SPECS, predictor_states
from tests.strategies import traces as trace_strategy


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(drawn=predictor_states())
    def test_serialize_deserialize_restore_is_identity(self, drawn):
        spec, predictor, state = drawn
        revived = PredictorState.from_bytes(state.to_bytes())
        assert revived == state
        assert revived.digest() == state.digest()
        # Restoring into a *fresh* predictor reproduces the captured
        # object graph exactly.
        fresh = make_predictor(spec)
        revived.restore(fresh)
        assert PredictorState.capture(fresh) == state

    @settings(max_examples=40, deadline=None)
    @given(drawn=predictor_states(), more=trace_strategy(max_length=60))
    def test_restore_rewinds_a_dirtied_predictor(self, drawn, more):
        """Snapshot, keep simulating, restore: behaviour rewinds too."""
        spec, predictor, state = drawn
        simulate(predictor, more)
        state.restore(predictor)
        assert PredictorState.capture(predictor) == state
        # The rewound predictor continues exactly like a twin that never
        # saw the extra events.
        twin = make_predictor(spec)
        state.restore(twin)
        a = simulate(predictor, more)
        b = simulate(twin, more)
        assert (a.conditional_branches, a.mispredictions) == (
            b.conditional_branches,
            b.mispredictions,
        )
        assert PredictorState.capture(predictor) == PredictorState.capture(twin)

    @pytest.mark.parametrize("spec", STATE_SPECS)
    def test_every_golden_matrix_family_round_trips(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        simulate(predictor, tiny_trace)
        state = PredictorState.capture(predictor)
        assert PredictorState.from_bytes(state.to_bytes()) == state
        dirty_digest = state.digest()
        fresh = make_predictor(spec)
        state.restore(fresh)
        assert PredictorState.capture(fresh).digest() == dirty_digest


class TestFailsLoudly:
    def _state(self) -> PredictorState:
        predictor = make_predictor("gshare:64:h5")
        trace = Trace.from_columns(
            [4 * i for i in range(64)],
            [i % 2 for i in range(64)],
            [1] * 64,
        )
        simulate(predictor, trace)
        return PredictorState.capture(predictor)

    def test_bit_flip_in_payload_is_detected(self):
        state = self._state()
        document = json.loads(state.to_bytes())
        # Corrupt one counter value but leave the JSON valid: only the
        # checksum can catch this class of damage.
        counters = document["payload"]["bank"]["v"]["v"]
        counters[0] = (counters[0] + 1) % 4
        blob = json.dumps(document).encode("utf-8")
        with pytest.raises(StateFormatError, match="checksum"):
            PredictorState.from_bytes(blob)

    def test_truncated_and_junk_payloads_are_rejected(self):
        state = self._state()
        blob = state.to_bytes()
        with pytest.raises(StateFormatError):
            PredictorState.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(StateFormatError):
            PredictorState.from_bytes(b"not json at all")
        with pytest.raises(StateFormatError):
            PredictorState.from_bytes(b'"a json string, not an object"')

    def test_wrong_format_and_version_markers_are_rejected(self):
        state = self._state()
        document = json.loads(state.to_bytes())
        bad_format = dict(document, format="something-else")
        with pytest.raises(StateFormatError, match=STATE_FORMAT):
            PredictorState.from_bytes(json.dumps(bad_format).encode())
        bad_version = dict(document, version=STATE_VERSION + 1)
        with pytest.raises(StateFormatError, match="version"):
            PredictorState.from_bytes(json.dumps(bad_version).encode())

    def test_cross_class_restore_is_rejected_before_mutation(self):
        state = PredictorState.capture(make_predictor("bimodal:64"))
        target = make_predictor("gshare:64:h5")
        before = PredictorState.capture(target)
        with pytest.raises(StateMismatchError):
            state.restore(target)
        assert PredictorState.capture(target) == before

    def test_cross_geometry_restore_is_rejected_before_mutation(self):
        predictor = make_predictor("bimodal:64")
        predictor.bank.counters.values[3] = 3
        state = PredictorState.capture(predictor)
        target = make_predictor("bimodal:128")
        before = PredictorState.capture(target)
        with pytest.raises(StateMismatchError):
            state.restore(target)
        assert PredictorState.capture(target) == before

    @pytest.mark.parametrize(
        "spec,poison",
        [
            # a counter a 2-bit table cannot hold
            ("gshare:64:h5", lambda p: p["bank"]["v"]["v"].__setitem__(0, 99)),
            # a counter that is not a number: every flush would raise
            ("gshare:64:h5", lambda p: p["bank"]["v"]["v"].__setitem__(0, "x")),
            # a bool is not a counter, even though True == 1
            ("gshare:64:h5", lambda p: p["bank"]["v"]["v"].__setitem__(0, True)),
            ("gshare:64:h5", lambda p: p["bank"]["v"]["v"].__setitem__(0, -1)),
            # a history value past its 8-bit register
            ("gshare:256:h8", lambda p: p["history"].__setitem__("v", 2**40)),
            ("pas:16/h3:64", lambda p: p["histories"]["v"].__setitem__(0, 8)),
            # a scalar leaf that changes type
            ("gshare:64:h5", lambda p: p.__setitem__("counter_bits", "2")),
            ("agree:64:h5", lambda p: p["_bias"]["v"].__setitem__(0, 1)),
            # a tuple over a counter bank
            ("gshare:64:h5", lambda p: p.__setitem__(
                "bank", {"k": "tuple", "v": [1, 2]}
            )),
        ],
        ids=[
            "counter-99", "counter-str", "counter-bool", "counter-negative",
            "ghist-2**40", "pahist-8", "scalar-type", "latch-int",
            "tuple-over-bank",
        ],
    )
    def test_leaf_out_of_type_or_range_is_rejected_before_mutation(
        self, spec, poison, tiny_trace
    ):
        predictor = make_predictor(spec)
        payload = json.loads(
            json.dumps(PredictorState.capture(predictor).payload)
        )
        poison(payload)
        target = make_predictor(spec)
        simulate(target, tiny_trace)  # differs from the payload everywhere
        before = PredictorState.capture(target)
        with pytest.raises(StateMismatchError):
            PredictorState(type(predictor).__name__, payload).restore(target)
        assert PredictorState.capture(target) == before

    def test_agree_latches_restore_set_and_unset(self, tiny_trace):
        # A latch is None until its slot first executes, then a bool:
        # rewinding a trained predictor to a fresh snapshot unsets it.
        fresh = PredictorState.capture(make_predictor("agree:64:h5"))
        trained = make_predictor("agree:64:h5")
        simulate(trained, tiny_trace)
        latched = PredictorState.capture(trained)
        assert any(bias is not None for bias in trained._bias)
        fresh.restore(trained)
        assert all(bias is None for bias in trained._bias)
        latched.restore(trained)
        assert PredictorState.capture(trained) == latched

    def test_unknown_attribute_types_fail_capture(self):
        predictor = make_predictor("bimodal:64")
        predictor.rogue = object()  # anything the walker can't encode
        with pytest.raises(StateError, match="rogue"):
            PredictorState.capture(predictor)
