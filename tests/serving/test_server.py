"""Differential serving tests: interleaved multi-tenant == serial.

The acceptance criterion of the serving layer, verbatim: N interleaved
sessions through the server produce per-tenant results and final
``PredictorState`` byte-identical to N serial ``simulate_fast`` runs —
across predictor families, engine tiers (each substituted for the
shard module's ``simulate_fast``), mid-stream snapshot/restore, and
arbitrary flush boundaries.  In-process requests go through the wire
codec (``decode_request(encode_message(message))``), as the TCP front
end's do.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import json
import warnings
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import repro.serving.shard as shard_module
from repro.serving.client import PredictionClient, ServingError
from repro.serving.protocol import (
    ProtocolError,
    decode_request,
    encode_message,
)
from repro.serving.server import (
    LINE_LIMIT,
    PredictionServer,
    PredictionService,
)
from repro.serving.shard import RETRY_LIMIT, Shard
from repro.sim.config import make_predictor
from repro.sim.engine import simulate
from repro.sim.native import native_available, simulate_native
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast, simulate_vectorized
from repro.traces.trace import Trace

from tests.strategies import forge_state
from tests.strategies import traces as trace_strategy

#: Families for the tier-forced matrix: every one of these has a path on
#: every forced tier (generic always; vectorized/native per their
#: ``supports`` gates at this geometry).
TIER_SPECS = [
    "bimodal:128",
    "gshare:128:h6",
    "gskew:3x128:h5:total",
    "gskew:3x128:h5:partial",
    "gskew:1x128:h5:lazy",
    "agree:128:h6",
]

#: Families only the generic tier expresses; the un-forced ladder must
#: still serve them bit-identically (falling back internally).
LADDER_ONLY_SPECS = [
    "hybrid:128:h6",
    "fa:32:h4",
    "unaliased:h4",
]

#: Each tier by its ``SimulationResult.engine`` name.
ENGINES = {
    "generic": simulate,
    "vectorized": simulate_vectorized,
    "native": simulate_native,
}


def _interleave_round_robin(service, sessions, chunk):
    """Feed each session's trace through the service, ``chunk`` events
    per turn of a round-robin over all sessions."""
    cursors = {name: 0 for name in sessions}
    live = True
    while live:
        live = False
        for name, trace in sessions.items():
            lo = cursors[name]
            if lo >= len(trace):
                continue
            live = True
            hi = min(lo + chunk, len(trace))
            events = [
                [int(trace.pcs[i]), int(trace.takens[i]),
                 int(trace.conditionals[i])]
                for i in range(lo, hi)
            ]
            cursors[name] = hi
            response = service.handle(
                _decoded({"op": "events", "session": name, "events": events})
            )
            assert response["ok"], response


def _served_finals(service, sessions):
    finals = {}
    for name in sessions:
        stats = service.handle({"op": "sync", "session": name})
        assert stats["ok"], stats
        predictor = service.shard.tenant(name).predictor
        finals[name] = (
            stats["conditional_branches"],
            stats["mispredictions"],
            PredictorState.capture(predictor).digest(),
        )
    return finals


def _serial_finals(sessions, specs):
    finals = {}
    for name, trace in sessions.items():
        predictor = make_predictor(specs[name])
        result = simulate_fast(predictor, trace, label=specs[name])
        finals[name] = (
            result.conditional_branches,
            result.mispredictions,
            PredictorState.capture(predictor).digest(),
        )
    return finals


def _ibs_like(seed: int, length: int) -> Trace:
    """A small deterministic trace with realistic PC reuse."""
    pcs, takens, conditionals = [], [], []
    value = seed * 2654435761 % 2**32
    for i in range(length):
        value = (value * 1103515245 + 12345) % 2**31
        pcs.append(4 * (value % 61))
        takens.append((value >> 7) & 1)
        conditionals.append(0 if value % 13 == 0 else 1)
    return Trace.from_columns(pcs, takens, conditionals, name=f"sess{seed}")


def _decoded(message):
    """``message`` as the server's decode step hands it to ``handle``."""
    return decode_request(encode_message(message))


def _events_line(events) -> bytes:
    return encode_message({"op": "events", "session": "s", "events": events})


def _event_rows(trace):
    return [
        [int(trace.pcs[i]), int(trace.takens[i]), int(trace.conditionals[i])]
        for i in range(len(trace))
    ]



#: Leaves a checksum-valid ``restore`` blob may carry that a
#: gshare:256:h8 tenant cannot hold (2-bit counters, 8-bit history).
POISONS = {
    "counter-99": lambda f, body: body.__setitem__(f["bank"]["v"]["o"], 99),
    # a counter table whose element type is not the one-byte "B"
    "counter-str": lambda f, body: f["bank"]["v"].__setitem__("t", "u"),
    "ghist-2**40": lambda f, body: f["history"].__setitem__("v", 2**40),
}


def _poisoned_state(spec: str, poison: str) -> str:
    """The hex wire form of a fresh ``spec`` state with one bad leaf."""
    state = PredictorState.capture(make_predictor(spec))
    return forge_state(state, POISONS[poison]).hex()

class TestEventValidation:
    @pytest.mark.parametrize(
        "event",
        [[2**64, 1], [-1, 1], [4, 2], [4, 1, 2], [4, -1], [4, 0.5],
         [True, 1], [4, "1"]],
    )
    def test_out_of_range_event_rejected(self, event):
        # The encoder is the frame's one writer: an event the frame
        # cannot hold never reaches the wire.
        with pytest.raises(ProtocolError, match="each event"):
            _events_line([[4, 1], event])

    def test_in_range_events_accepted(self):
        events = [[0, 0], [2**64 - 1, 1], [4, True, False], [8, 0, 1]]
        columns = decode_request(_events_line(events))["events"]
        assert columns.pcs.tolist() == [0, 2**64 - 1, 4, 8]
        assert columns.takens.tolist() == [0, 1, 1, 0]
        assert columns.conditionals.tolist() == [1, 1, 0, 1]

    def test_in_process_poison_pill_leaves_session_usable(self):
        # In-process callers that skip decode_request hand handle a raw
        # list: it is refused whole, or an unchecked PC would stay
        # buffered and every later sync of the session would raise.
        service = PredictionService(batch_size=8)
        service.handle({"op": "open", "session": "s", "spec": "bimodal:64"})
        refused = service.handle(
            {"op": "events", "session": "s", "events": [[2**64, 1]]}
        )
        assert refused["ok"] is False
        assert "decode_request" in refused["error"]
        with pytest.raises(ProtocolError, match="2\\*\\*64"):
            _events_line([[2**64, 1]])
        synced = service.handle({"op": "sync", "session": "s"})
        assert synced["ok"], synced
        assert synced["conditional_branches"] == 0

    @pytest.mark.parametrize("spec", ["gskew:3x1:h4", "egskew:3x1:h4"])
    def test_open_refuses_unrunnable_geometry(self, spec):
        # One-entry skewed banks build nothing any engine can run; open
        # answers with an error and no session is created.
        service = PredictionService(batch_size=4)
        refused = service.handle({"op": "open", "session": "s", "spec": spec})
        assert refused["ok"] is False
        assert "bank_index_bits" in refused["error"]
        assert service.handle({"op": "stats"})["sessions"] == 0

    @pytest.mark.parametrize(
        "event", [[2**64, 1], [-1, 1], [4, 2], [4, 1, 2], [True, 1]]
    )
    def test_handle_buffers_nothing_from_a_bad_batch(self, event):
        service = PredictionService(batch_size=8)
        service.handle({"op": "open", "session": "s", "spec": "bimodal:64"})
        refused = service.handle(
            {"op": "events", "session": "s", "events": [[4, 1], event]}
        )
        assert refused["ok"] is False
        with pytest.raises(ProtocolError, match="each event"):
            _events_line([[4, 1], event])
        accepted = service.handle(
            _decoded({"op": "events", "session": "s", "events": [[4, 1]]})
        )
        assert accepted["pending"] == 1
        synced = service.handle({"op": "sync", "session": "s"})
        assert synced["conditional_branches"] == 1


class TestInterleavedVsSerial:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("spec", TIER_SPECS)
    def test_forced_tier_parity(self, engine, spec, monkeypatch):
        """Interleaved == serial on every forced engine tier."""
        if engine == "native" and not native_available():
            pytest.skip("native backend unavailable")
        monkeypatch.setattr(shard_module, "simulate_fast", ENGINES[engine])
        sessions = {f"t{i}": _ibs_like(i + 1, 400 + 30 * i) for i in range(4)}
        specs = {name: spec for name in sessions}
        service = PredictionService(batch_size=64)
        for name in sessions:
            service.handle({"op": "open", "session": name, "spec": spec})
        _interleave_round_robin(service, sessions, chunk=37)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )

    @pytest.mark.parametrize("spec", LADDER_ONLY_SPECS)
    def test_ladder_parity_for_fallback_families(self, spec):
        """Families without full tier coverage still serve identically."""
        sessions = {f"t{i}": _ibs_like(10 + i, 350) for i in range(3)}
        specs = {name: spec for name in sessions}
        service = PredictionService(batch_size=48)
        for name in sessions:
            service.handle({"op": "open", "session": name, "spec": spec})
        _interleave_round_robin(service, sessions, chunk=23)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )

    def test_mixed_specs_one_server(self):
        """Tenants with different predictor families don't cross-talk."""
        all_specs = TIER_SPECS + LADDER_ONLY_SPECS
        sessions, specs = {}, {}
        for i, spec in enumerate(all_specs):
            name = f"mix{i}"
            sessions[name] = _ibs_like(100 + i, 300)
            specs[name] = spec
        service = PredictionService(batch_size=32)
        for name in sessions:
            service.handle(
                {"op": "open", "session": name, "spec": specs[name]}
            )
        _interleave_round_robin(service, sessions, chunk=19)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )

    @settings(max_examples=25, deadline=None)
    @given(
        traces=st.lists(
            trace_strategy(max_length=120), min_size=1, max_size=4
        ),
        chunk=st.integers(1, 50),
        batch_size=st.integers(1, 40),
        spec=st.sampled_from(TIER_SPECS + ["agree:64:h5"]),
    )
    def test_fuzzed_interleavings_and_flush_boundaries(
        self, traces, chunk, batch_size, spec
    ):
        """Arbitrary session count x chunking x batch size: still exact."""
        sessions = {f"f{i}": trace for i, trace in enumerate(traces)}
        specs = {name: spec for name in sessions}
        service = PredictionService(batch_size=batch_size)
        for name in sessions:
            service.handle({"op": "open", "session": name, "spec": spec})
        _interleave_round_robin(service, sessions, chunk=chunk)
        assert _served_finals(service, sessions) == _serial_finals(
            sessions, specs
        )

    @settings(max_examples=15, deadline=None)
    @given(
        trace=trace_strategy(max_length=150),
        sync_points=st.lists(st.integers(0, 150), max_size=5),
        spec=st.sampled_from(["gshare:64:h5", "gskew:3x64:h4:partial"]),
    )
    def test_out_of_order_sync_barriers(self, trace, sync_points, spec):
        """Forced flushes at arbitrary points don't perturb results."""
        service = PredictionService(batch_size=32)
        service.handle({"op": "open", "session": "s", "spec": spec})
        marks = set(sync_points)
        for i in range(len(trace)):
            service.handle(
                _decoded(
                    {
                        "op": "events",
                        "session": "s",
                        "events": [
                            [int(trace.pcs[i]), int(trace.takens[i]),
                             int(trace.conditionals[i])]
                        ],
                    }
                )
            )
            if i in marks:
                service.handle({"op": "sync", "session": "s"})
        finals = _served_finals(service, {"s": trace})
        assert finals == _serial_finals({"s": trace}, {"s": spec})


class TestSnapshotRestore:
    def test_mid_stream_snapshot_then_restore_rewinds_exactly(self):
        spec = "gshare:128:h7"
        trace = _ibs_like(5, 600)
        half = len(trace) // 2

        service = PredictionService(batch_size=50)
        service.handle({"op": "open", "session": "s", "spec": spec})
        first = [
            [int(trace.pcs[i]), int(trace.takens[i]),
             int(trace.conditionals[i])]
            for i in range(half)
        ]
        rest = [
            [int(trace.pcs[i]), int(trace.takens[i]),
             int(trace.conditionals[i])]
            for i in range(half, len(trace))
        ]
        service.handle(_decoded({"op": "events", "session": "s", "events": first}))
        snap = service.handle({"op": "snapshot", "session": "s"})
        assert snap["ok"]

        # Replay the second half twice with a restore in between: the
        # rewind must reproduce the identical final digest both times.
        digests = []
        for _ in range(2):
            service.handle(
                _decoded({"op": "events", "session": "s", "events": rest})
            )
            service.handle({"op": "sync", "session": "s"})
            predictor = service.shard.tenant("s").predictor
            digests.append(PredictorState.capture(predictor).digest())
            restored = service.handle(
                {"op": "restore", "session": "s", "state": snap["state"]}
            )
            assert restored["ok"], restored
        assert digests[0] == digests[1]

        # And the snapshot itself matches a serial run over the first half.
        reference = make_predictor(spec)
        simulate_fast(reference, trace.slice(0, half), label=spec)
        assert (
            PredictorState.from_bytes(bytes.fromhex(snap["state"])).digest()
            == PredictorState.capture(reference).digest()
        )

    def test_corrupt_restore_payload_is_refused(self):
        service = PredictionService(batch_size=50)
        service.handle({"op": "open", "session": "s", "spec": "bimodal:64"})
        snap = service.handle({"op": "snapshot", "session": "s"})
        corrupted = snap["state"][:-8] + "deadbeef"
        response = service.handle(
            {"op": "restore", "session": "s", "state": corrupted}
        )
        assert response["ok"] is False
        assert "restore rejected" in response["error"]

    @pytest.mark.parametrize("poison", sorted(POISONS))
    def test_out_of_range_restore_is_refused_and_session_keeps_serving(
        self, poison
    ):
        spec = "gshare:256:h8"
        trace = _ibs_like(11, 300)
        rows = _event_rows(trace)
        service = PredictionService(batch_size=50)
        service.handle({"op": "open", "session": "s", "spec": spec})
        service.handle(
            _decoded({"op": "events", "session": "s", "events": rows[:150]})
        )
        response = service.handle(
            {"op": "restore", "session": "s",
             "state": _poisoned_state(spec, poison)}
        )
        assert response["ok"] is False
        assert response["error"].startswith("restore rejected: ")
        service.handle(
            _decoded({"op": "events", "session": "s", "events": rows[150:]})
        )
        assert _served_finals(service, {"s": trace}) == _serial_finals(
            {"s": trace}, {"s": spec}
        )


def test_close_frees_the_sessions_predictor_without_a_collection():
    # A closed session's tables are freed by ``close`` itself, not
    # whenever the cyclic collector next runs: a server's memory is its
    # open sessions'.
    rows = _event_rows(_ibs_like(3, 300))
    service = PredictionService(batch_size=64)
    enabled = gc.isenabled()
    gc.disable()
    try:
        service.handle({"op": "open", "session": "s", "spec": "gshare:64k:h16"})
        service.handle(
            _decoded({"op": "events", "session": "s", "events": rows})
        )
        assert service.handle({"op": "snapshot", "session": "s"})["ok"]
        predictor = weakref.ref(service.shard.tenant("s").predictor)
        closed = service.handle({"op": "close", "session": "s"})
        assert closed["ok"] and closed["events"] == len(rows)
        assert predictor() is None
    finally:
        if enabled:
            gc.enable()


class TestOneTenantTable:
    """Every tenant lives in the service's one shard, without locks."""

    def test_open_and_stats_answer_exactly_their_fields(self):
        service = PredictionService(batch_size=4)
        opened = service.handle(
            {"op": "open", "session": "s", "spec": "bimodal:64"}
        )
        assert opened == {"ok": True, "session": "s"}
        service.handle(
            _decoded(
                {"op": "events", "session": "s",
                 "events": [[4 * i, i % 2] for i in range(4)]}
            )
        )
        stats = service.handle({"op": "stats"})
        assert stats == {"ok": True, "sessions": 1, "flushes": 1, "replays": 0}

    @pytest.mark.parametrize(
        "function",
        [PredictionService.handle, Shard.flush, Shard.flush_tenant],
        ids=["handle", "flush", "flush_tenant"],
    )
    def test_table_mutations_cannot_yield_to_the_event_loop(self, function):
        # The server takes no lock around these calls: that is only safe
        # while no coroutine can run in the middle of one.
        assert not inspect.iscoroutinefunction(function)


class TestAsyncServer:
    """The TCP front end: concurrent clients, real sockets, same parity."""

    def test_concurrent_clients_are_bit_identical_to_serial(self):
        async def scenario():
            sessions = {
                f"net{i}": _ibs_like(50 + i, 350) for i in range(3)
            }
            spec = "gshare:128:h6"
            async with PredictionServer(
                batch_size=40, linger_s=0.002
            ) as server:
                host, port = server.address

                async def drive(name, trace):
                    async with PredictionClient(host, port) as client:
                        await client.open(name, spec)
                        for lo in range(0, len(trace), 29):
                            hi = min(lo + 29, len(trace))
                            await client.events(
                                name,
                                [
                                    (int(trace.pcs[i]), int(trace.takens[i]),
                                     int(trace.conditionals[i]))
                                    for i in range(lo, hi)
                                ],
                            )
                            await asyncio.sleep(0)  # force interleaving
                        stats = await client.sync(name)
                        state = await client.snapshot(name)
                        return (
                            stats["conditional_branches"],
                            stats["mispredictions"],
                            state.digest(),
                        )

                served = await asyncio.gather(
                    *(drive(name, trace) for name, trace in sessions.items())
                )
                assert server.service.handle({"op": "stats"})["sessions"] == 3
                return dict(zip(sessions, served)), sessions, spec

        served, sessions, spec = asyncio.run(scenario())
        specs = {name: spec for name in sessions}
        assert served == _serial_finals(sessions, specs)

    def test_protocol_errors_are_answered_not_fatal(self):
        lines = [
            b"this is not json\n",
            # The connection survives a garbage line...
            b'{"op": "open", "session": "s", "spec": "bimodal:64"}\n',
            # ...and the retired list form of events (here with an
            # out-of-range PC) is refused before anything is buffered, so
            # the session keeps syncing instead of raising forever.
            b'{"op": "events", "session": "s", "events": [[%d, 1]]}\n'
            % 2**64,
            b'{"op": "sync", "session": "s"}\n',
        ]

        async def scenario():
            async with PredictionServer(batch_size=8) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                responses = []
                for line in lines:
                    writer.write(line)
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                return responses

        responses = asyncio.run(scenario())
        assert [r["ok"] for r in responses] == [False, True, False, True]
        assert "base64 'events' frame" in responses[2]["error"]
        assert responses[3]["conditional_branches"] == 0

    @pytest.mark.parametrize("split", [False, True],
                             ids=["whole", "newline-late"])
    def test_oversized_line_is_answered_and_skipped(self, split):
        # One events line well past the stream limit (12 bytes per
        # event).  "newline-late" sends it in two writes, so the limit
        # trips before the line's newline has arrived.
        big = [[0x120000000 + 4 * i, i % 2] for i in range(6000)]
        oversized = _events_line(big)
        assert len(oversized) > LINE_LIMIT
        lines = [
            b'{"op": "open", "session": "s", "spec": "bimodal:64"}\n',
            oversized,
            _events_line([[64, 1], [68, 0]]),
            b'{"op": "sync", "session": "s"}\n',
        ]

        async def scenario():
            async with PredictionServer(batch_size=8) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                responses = []
                for line in lines:
                    if split and line is oversized:
                        writer.write(line[: LINE_LIMIT + 1024])
                        await writer.drain()
                        await asyncio.sleep(0.05)
                        line = line[LINE_LIMIT + 1024 :]
                    writer.write(line)
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                return responses

        responses = asyncio.run(scenario())
        assert [r["ok"] for r in responses] == [True, False, True, True]
        assert str(LINE_LIMIT) in responses[1]["error"]
        # Nothing from the oversized line was buffered.
        assert responses[3]["conditional_branches"] == 2

    def test_out_of_range_restore_is_refused_over_tcp(self):
        spec = "gshare:256:h8"
        trace = _ibs_like(12, 200)

        async def scenario():
            async with PredictionServer(batch_size=40) as server:
                host, port = server.address
                async with PredictionClient(host, port) as client:
                    await client.open("s", spec)
                    for poison in sorted(POISONS):
                        with pytest.raises(
                            ServingError, match="^restore rejected: "
                        ):
                            await client.request(
                                {"op": "restore", "session": "s",
                                 "state": _poisoned_state(spec, poison)}
                            )
                    await client.events("s", _event_rows(trace))
                    stats = await client.sync("s")
                    state = await client.snapshot("s")
                    return (
                        stats["conditional_branches"],
                        stats["mispredictions"],
                        state.digest(),
                    )

        served = asyncio.run(scenario())
        assert served == _serial_finals({"s": trace}, {"s": spec})["s"]

    def test_unknown_session_error_surfaces_in_client(self):
        async def scenario():
            async with PredictionServer(batch_size=8) as server:
                host, port = server.address
                async with PredictionClient(host, port) as client:
                    with pytest.raises(ServingError, match="ghost"):
                        await client.sync("ghost")

        asyncio.run(scenario())

    def test_unexpected_error_is_answered_and_connection_kept(
        self, fault_env
    ):
        # A full batch whose flush keeps failing: Shard.flush_tenant
        # re-raises after its replays.  The client gets an error
        # response, not a dropped connection, and once the fault clears
        # the requeued batch syncs on the same connection.
        spec = "gshare:128:h6"
        trace = _ibs_like(7, 8)
        lines = [
            encode_message({"op": "open", "session": "s", "spec": spec}),
            _events_line(_event_rows(trace)),
            encode_message({"op": "sync", "session": "s"}),
        ]

        async def scenario():
            async with PredictionServer(
                batch_size=len(trace), linger_s=0
            ) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                responses = []
                for i, line in enumerate(lines):
                    fault_env("serving-shard@*" if i == 1 else "")
                    writer.write(line)
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                tenant = server.service.shard.tenant("s")
                return responses, PredictorState.capture(
                    tenant.predictor
                ).digest()

        responses, digest = asyncio.run(scenario())
        assert [r["ok"] for r in responses] == [True, False, True]
        assert "InjectedFault" in responses[1]["error"]
        served = (
            responses[2]["conditional_branches"],
            responses[2]["mispredictions"],
            digest,
        )
        assert responses[2]["pending"] == 0
        assert served == _serial_finals({"s": trace}, {"s": spec})["s"]

    def test_linger_loop_survives_a_failed_flush(self, fault_env):
        # The first tenant the linger timer flushes exhausts its replays
        # and raises.  The loop warns and keeps running, the other tenant
        # still flushes, and once the fault window has passed the failed
        # tail flushes too — with no explicit sync.
        spec = "gshare:128:h6"
        sessions = {f"linger{i}": _ibs_like(80 + i, 30) for i in range(2)}
        fault_env(f"serving-shard@1-{RETRY_LIMIT + 1}")

        async def scenario():
            async with PredictionServer(
                batch_size=1000, linger_s=0.005
            ) as server:
                host, port = server.address
                tenants = []
                async with PredictionClient(host, port) as client:
                    for name, trace in sessions.items():
                        await client.open(name, spec)
                        await client.events(name, _event_rows(trace))
                        tenants.append(
                            server.service.shard.tenant(name)
                        )
                    for _ in range(400):
                        if all(t.pending == 0 for t in tenants):
                            break
                        await asyncio.sleep(0.005)
                    assert not server._linger_task.done()
                    replays = server.service.shard.replays
                return {
                    tenant.session: (
                        tenant.conditional_branches,
                        tenant.mispredictions,
                        PredictorState.capture(tenant.predictor).digest(),
                    )
                    for tenant in tenants
                }, replays

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            served, replays = asyncio.run(scenario())
        assert replays == RETRY_LIMIT
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "linger" in str(w.message)
            for w in caught
        )
        specs = {name: spec for name in sessions}
        assert served == _serial_finals(sessions, specs)

    def test_stop_leaves_pending_events_for_a_later_sync(self):
        # stop() flushes nothing: a partial batch stays pending in the
        # service, and a sync there still evaluates it exactly.
        spec = "gshare:128:h6"
        trace = _ibs_like(21, 50)

        async def scenario():
            server = PredictionServer(batch_size=1000, linger_s=0)
            await server.start()
            host, port = server.address
            async with PredictionClient(host, port) as client:
                await client.open("s", spec)
                await client.events("s", _event_rows(trace))
            await server.stop()
            return server

        server = asyncio.run(scenario())
        assert server.service.shard.tenant("s").pending == len(trace)
        synced = server.service.handle({"op": "sync", "session": "s"})
        predictor = server.service.shard.tenant("s").predictor
        served = (
            synced["conditional_branches"],
            synced["mispredictions"],
            PredictorState.capture(predictor).digest(),
        )
        assert served == _serial_finals({"s": trace}, {"s": spec})["s"]
