"""PredictorState round-trip property tests.

The serving layer's whole crash/rollback/wire story rests on one
contract: ``capture → serialize → deserialize → restore`` is identity
for every predictor family, and anything short of a byte-perfect blob
that fits the target fails loudly — state is never silently reset.

The corruption tests forge checksum-valid blobs
(:func:`tests.strategies.forge_state`), so only the structural checks
can refuse them.
"""

from __future__ import annotations

import hashlib
import json
import struct
import tracemalloc

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

from tests.predictors.test_contract import SPECS
from tests.strategies import (
    STATE_SPECS,
    forge_state,
    join_state,
    predictor_states,
    split_state,
)
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
        blob = bytearray(state.to_bytes())
        # Flip the low bit of the first of the 64 counter bytes: every
        # counter stays in range, so only the checksum can catch this
        # class of damage.
        blob[len(blob) - 32 - 64] ^= 1
        with pytest.raises(StateFormatError, match="checksum"):
            PredictorState.from_bytes(bytes(blob))

    def test_truncated_and_junk_payloads_are_rejected(self):
        state = self._state()
        blob = state.to_bytes()
        with pytest.raises(StateFormatError):
            PredictorState.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(StateFormatError):
            PredictorState.from_bytes(b"not a state at all")
        with pytest.raises(StateFormatError):
            PredictorState.from_bytes(b"")
        version, header, body = split_state(blob)
        with pytest.raises(StateFormatError, match="header"):
            PredictorState.from_bytes(join_state(["not", "an object"], body))

    def test_wrong_format_and_version_markers_are_rejected(self):
        state = self._state()
        _, header, body = split_state(state.to_bytes())
        with pytest.raises(StateFormatError, match="magic"):
            PredictorState.from_bytes(join_state(header, body, magic=b"JSON"))
        with pytest.raises(StateFormatError, match="version"):
            PredictorState.from_bytes(
                join_state(header, body, version=STATE_VERSION + 1)
            )

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
        "spec,poison,error",
        [
            # a counter a 2-bit table cannot hold
            (
                "gshare:64:h5",
                lambda f, body: body.__setitem__(f["bank"]["v"]["o"], 99),
                StateMismatchError,
            ),
            # a counter that is not a number: the table's element type
            # is not the counters' one-byte "B"
            (
                "gshare:64:h5",
                lambda f, body: f["bank"]["v"].__setitem__("t", "u"),
                StateFormatError,
            ),
            # a bool is not a counter width, even though True == 1
            (
                "gshare:64:h5:c1",
                lambda f, body: f["bank"]["v"].__setitem__("bits", True),
                StateMismatchError,
            ),
            # -1 as a byte: 255, past a 2-bit counter
            (
                "gshare:64:h5",
                lambda f, body: body.__setitem__(f["bank"]["v"]["o"], 0xFF),
                StateMismatchError,
            ),
            # a history value past its 8-bit register
            (
                "gshare:256:h8",
                lambda f, body: f["history"].__setitem__("v", 2**40),
                StateMismatchError,
            ),
            (
                "pas:16/h3:64",
                lambda f, body: f["histories"]["v"].__setitem__(0, 8),
                StateMismatchError,
            ),
            # a scalar leaf that changes type
            (
                "gshare:64:h5",
                lambda f, body: f.__setitem__("counter_bits", "2"),
                StateMismatchError,
            ),
            # a latch code other than -1 (unlatched), 0 or 1
            (
                "agree:64:h5",
                lambda f, body: body.__setitem__(f["_bias"]["o"], 2),
                StateMismatchError,
            ),
            # a tuple over a counter bank
            (
                "gshare:64:h5",
                lambda f, body: f.__setitem__(
                    "bank", {"k": "tuple", "v": [f["bank"]["v"]]}
                ),
                StateFormatError,
            ),
        ],
        ids=[
            "counter-99", "counter-str", "counter-bool", "counter-negative",
            "ghist-2**40", "pahist-8", "scalar-type", "latch-int",
            "tuple-over-bank",
        ],
    )
    def test_leaf_out_of_type_or_range_is_rejected_before_mutation(
        self, spec, poison, error, tiny_trace
    ):
        blob = forge_state(PredictorState.capture(make_predictor(spec)), poison)
        target = make_predictor(spec)
        simulate(target, tiny_trace)  # differs from the blob everywhere
        before = PredictorState.capture(target)
        with pytest.raises(error):
            PredictorState.from_bytes(blob).restore(target)
        assert PredictorState.capture(target) == before

    def test_agree_latches_restore_set_and_unset(self, tiny_trace):
        # A latch code is -1 until its slot first executes, then the
        # outcome: rewinding a trained predictor to a fresh snapshot
        # unsets it.
        fresh = PredictorState.capture(make_predictor("agree:64:h5"))
        trained = make_predictor("agree:64:h5")
        simulate(trained, tiny_trace)
        latched = PredictorState.capture(trained)
        assert any(code >= 0 for code in trained._bias)
        fresh.restore(trained)
        assert all(code == -1 for code in trained._bias)
        latched.restore(trained)
        assert PredictorState.capture(trained) == latched

    def test_unknown_attribute_types_fail_capture(self):
        predictor = make_predictor("bimodal:64")
        predictor.rogue = object()  # anything the walker can't encode
        with pytest.raises(StateError, match="rogue"):
            PredictorState.capture(predictor)


class TestBlob:
    """The binary blob: one per spec, byte copies of the live tables, and
    every kind of damage refused before a restore writes anything."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_round_trip_for_every_spec(self, spec, tiny_trace):
        predictor = make_predictor(spec)
        simulate(predictor, tiny_trace)
        state = PredictorState.capture(predictor)
        assert state.spec == spec
        revived = PredictorState.from_bytes(state.to_bytes())
        assert revived == state and revived.digest() == state.digest()
        fresh = make_predictor(spec)
        revived.restore(fresh)
        assert PredictorState.capture(fresh) == state

    def test_restore_writes_into_the_live_buffers(self, tiny_trace):
        # Restore copies into the tables' own buffers, so a view taken
        # before (as the fast walks take them) sees the restored state.
        trained = make_predictor("gskew:3x64:h4:partial")
        simulate(trained, tiny_trace)
        state = PredictorState.capture(trained)
        target = make_predictor("gskew:3x64:h4:partial")
        buffers = [bank.counters.values for bank in target.banks]
        views = [memoryview(buffer) for buffer in buffers]
        state.restore(target)
        assert [bank.counters.values for bank in target.banks] == buffers
        assert all(bank.counters.values is b for bank, b in zip(target.banks, buffers))
        assert [view.tolist() for view in views] == [
            list(bank.counters.values) for bank in trained.banks
        ]

    def test_table_bytes_are_the_counters(self):
        # The array bytes are the live buffers verbatim: one byte per
        # counter, the blob a small header longer than the table.
        predictor = make_predictor("gshare:4k:h10")
        predictor.bank.counters.values[7] = 0
        blob = PredictorState.capture(predictor).to_bytes()
        _, header, body = split_state(blob)
        assert bytes(body) == bytes(predictor.bank.counters.values)
        assert header["fields"]["bank"]["v"] == {
            "k": "counters", "bits": 2, "t": "B", "n": 4096, "o": 0,
        }
        assert len(blob) < 4096 + 1024

    def test_truncated_blob_is_refused(self):
        blob = PredictorState.capture(make_predictor("gshare:64:h5")).to_bytes()
        for cut in (1, 32, 33, len(blob) - 20):
            with pytest.raises(StateFormatError):
                PredictorState.from_bytes(blob[:-cut])

    def test_trailing_bytes_are_refused(self):
        state = PredictorState.capture(make_predictor("gshare:64:h5"))
        blob = state.to_bytes()
        with pytest.raises(StateFormatError, match="checksum"):
            PredictorState.from_bytes(blob + b"\0")
        # Even re-checksummed, bytes past the array leaves are refused.
        _, header, body = split_state(blob)
        with pytest.raises(StateFormatError, match="body"):
            PredictorState.from_bytes(join_state(header, body + b"\1"))
        with pytest.raises(StateFormatError, match="body"):
            PredictorState.from_bytes(join_state(header, body[:-1]))

    def test_any_bit_flip_is_refused(self):
        blob = PredictorState.capture(make_predictor("agree:64:h5")).to_bytes()
        for position in range(0, len(blob), 7):
            for bit in (0, 7):
                damaged = bytearray(blob)
                damaged[position] ^= 1 << bit
                with pytest.raises(StateFormatError):
                    PredictorState.from_bytes(bytes(damaged))

    def test_another_version_is_refused(self):
        _, header, body = split_state(
            PredictorState.capture(make_predictor("gshare:64:h5")).to_bytes()
        )
        for version in (1, STATE_VERSION + 1):
            with pytest.raises(StateFormatError, match="version"):
                PredictorState.from_bytes(join_state(header, body, version))

    @pytest.mark.parametrize(
        "source,target",
        [
            # the update policy is configuration no leaf holds
            ("gskew:3x64:h4:partial", "gskew:3x64:h4:total"),
            # the same predictor, written another way
            ("gshare:64:h5", "gshare:64:h5:c2"),
        ],
    )
    def test_restore_refuses_another_spec(self, source, target, tiny_trace):
        state = PredictorState.capture(make_predictor(source))
        victim = make_predictor(target)
        simulate(victim, tiny_trace)
        before = PredictorState.capture(victim)
        with pytest.raises(StateMismatchError, match="spec"):
            state.restore(victim)
        assert PredictorState.capture(victim) == before

    @pytest.mark.parametrize(
        "spec,name,value",
        [
            ("gshare:64:h5", "index_bits", 7),
            ("gshare:64:h5", "counter_bits", 1),
            ("unaliased:h4", "counter_bits", 3),
            ("egskew:3x64:h6", "bank0_history_bits", 2),
        ],
    )
    def test_restore_refuses_a_changed_configuration_scalar(
        self, spec, name, value, tiny_trace
    ):
        # Same class, same spec, checksum valid: only the configuration
        # scalar differs from the target's, and that is refused.
        blob = forge_state(
            PredictorState.capture(make_predictor(spec)),
            lambda fields, body: fields.__setitem__(name, value),
        )
        victim = make_predictor(spec)
        simulate(victim, tiny_trace)
        before = PredictorState.capture(victim)
        with pytest.raises(StateMismatchError, match="configuration"):
            PredictorState.from_bytes(blob).restore(victim)
        assert PredictorState.capture(victim) == before

    @pytest.mark.parametrize(
        "spec,poison",
        [
            # a counter of 99 in a 2-bit tagged table
            ("unaliased:h4", lambda entry: entry.__setitem__(1, 99)),
            ("fa:16:h3", lambda entry: entry.__setitem__(1, 99)),
            ("fa:16:h3", lambda entry: entry.__setitem__(1, -1)),
            ("unaliased:h4", lambda entry: entry.__setitem__(1, True)),
            # a history tag past the 4-bit register
            ("unaliased:h4", lambda entry: entry[0]["v"].__setitem__(1, 16)),
            ("fa:16:h3", lambda entry: entry[0]["v"].__setitem__(0, -4)),
        ],
        ids=[
            "unaliased-counter-99", "fa-counter-99", "fa-counter-negative",
            "unaliased-counter-bool", "unaliased-tag-16", "fa-word-negative",
        ],
    )
    def test_restore_range_checks_the_tagged_tables(
        self, spec, poison, tiny_trace
    ):
        trained = make_predictor(spec)
        simulate(trained, tiny_trace)
        blob = forge_state(
            PredictorState.capture(trained),
            lambda fields, body: poison(fields["table"]["v"][0]),
        )
        victim = make_predictor(spec)
        before = PredictorState.capture(victim)
        with pytest.raises(StateMismatchError):
            PredictorState.from_bytes(blob).restore(victim)
        assert PredictorState.capture(victim) == before

    def test_restore_refuses_a_tagged_table_past_its_capacity(self, tiny_trace):
        trained = make_predictor("fa:16:h3")
        simulate(trained, tiny_trace)
        entries = PredictorState.capture(trained)

        def overfill(fields, body):
            table = fields["table"]["v"]
            assert len(table) == 16
            table.append([{"k": "tuple", "v": [123456, 0]}, 2])

        blob = forge_state(entries, overfill)
        with pytest.raises(StateMismatchError, match="entries"):
            PredictorState.from_bytes(blob).restore(make_predictor("fa:16:h3"))

    def test_capture_digest_peaks_below_the_table_size(self, tiny_trace):
        # gshare:64k's 64 KiB of counters: the capture is one byte copy
        # plus a small header, hashed in place.
        predictor = make_predictor("gshare:64k:h16")
        simulate(predictor, tiny_trace)
        PredictorState.capture(predictor).digest()  # warm imports
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            PredictorState.capture(predictor).digest()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6, peak

    @pytest.mark.parametrize(
        "spec",
        ["gshare:64:h5", "agree:64:h5", "fa:16:h3", "unaliased:h3", "pas:16/h3:64",
         "hybrid:64:h5"],
    )
    def test_any_forged_node_is_refused_with_a_state_error(self, spec, tiny_trace):
        # Replace each header node in turn with junk, re-checksummed: the
        # blob restores or is refused with a StateError, never another
        # exception a server would not answer.
        trained = make_predictor(spec)
        simulate(trained, tiny_trace)
        _, header, body = split_state(PredictorState.capture(trained).to_bytes())
        junk = [None, -1, 2.5, "x", [], [[1]], {}, {"k": "dict"}, {"k": "dict", "v": 5},
                {"k": "dict", "v": [[1]]}, {"k": "set", "v": [[1, 2]]},
                {"k": "tuple", "v": 3}, {"k": "list"}, {"k": "pred", "v": []},
                {"k": "counters", "bits": 2, "t": "B", "n": 0, "o": 0}]

        def slots(node):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in list(items):
                yield node, key
                if isinstance(value, (dict, list)):
                    yield from slots(value)

        for container, key in list(slots(header["fields"])):
            original = container[key]
            for value in junk:
                container[key] = value
                try:
                    PredictorState.from_bytes(join_state(header, body)).restore(
                        make_predictor(spec)
                    )
                except StateError:
                    pass
            container[key] = original
        # A header nested past the interpreter's recursion limit.
        deep = '{"k":"list","v":[' * 5000 + "]}" * 5000
        text = json.dumps({**header, "fields": {"x": 0}}).replace("0}", deep + "}")
        content = (
            struct.pack("<4sII", STATE_FORMAT, STATE_VERSION, len(text)) + text.encode()
        )
        with pytest.raises(StateFormatError, match="header"):
            PredictorState.from_bytes(content + hashlib.sha256(content).digest())
