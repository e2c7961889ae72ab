"""Differential serving tests: interleaved multi-tenant == serial.

The acceptance criterion of the serving layer, verbatim: N interleaved
sessions through the server produce per-tenant results and final
``PredictorState`` byte-identical to N serial ``simulate_fast`` runs —
across predictor families, engine tiers (``REPRO_ENGINE`` forced),
mid-stream snapshot/restore, and arbitrary flush boundaries.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.client import PredictionClient, ServingError
from repro.serving.protocol import ProtocolError, decode_request
from repro.serving.server import PredictionServer, PredictionService
from repro.sim.config import make_predictor
from repro.sim.native import native_available
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace

from tests.strategies import traces as trace_strategy

#: Families for the tier-forced matrix: every one of these has a path on
#: every forced tier (generic always; vectorized/scan/native per their
#: ``supports`` gates at this geometry).
TIER_SPECS = [
    "bimodal:128",
    "gshare:128:h6",
    "gskew:3x128:h5:total",
    "gskew:1x128:h5:lazy",
]

#: Families only some tiers express; the un-forced ladder must still
#: serve them bit-identically (falling back internally as needed).
LADDER_ONLY_SPECS = [
    "agree:128:h6",
    "gskew:3x128:h5:partial",
    "hybrid:128:h6",
    "fa:32:h4",
    "unaliased:h4",
]

ENGINES = ["generic", "vectorized", "scan", "native"]


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
                {"op": "events", "session": name, "events": events}
            )
            assert response["ok"], response


def _served_finals(service, sessions):
    finals = {}
    for name in sessions:
        stats = service.handle({"op": "sync", "session": name})
        assert stats["ok"], stats
        predictor = service.ring.shard_for(name).tenant(name).predictor
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


def _events_line(events) -> bytes:
    return json.dumps(
        {"op": "events", "session": "s", "events": events}
    ).encode("utf-8")


class TestEventValidation:
    @pytest.mark.parametrize(
        "event",
        [[2**64, 1], [-1, 1], [4, 2], [4, 1, 2], [4, -1], [4, 0.5],
         [True, 1], [4, "1"]],
    )
    def test_out_of_range_event_rejected(self, event):
        with pytest.raises(ProtocolError, match="each event"):
            decode_request(_events_line([[4, 1], event]))

    def test_in_range_events_accepted(self):
        events = [[0, 0], [2**64 - 1, 1], [4, True, False], [8, 0, 1]]
        assert decode_request(_events_line(events))["events"] == events


class TestInterleavedVsSerial:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("spec", TIER_SPECS)
    def test_forced_tier_parity(self, engine, spec, monkeypatch):
        """Interleaved == serial on every forced engine tier."""
        if engine == "native" and not native_available():
            pytest.skip("native backend unavailable")
        monkeypatch.setenv("REPRO_ENGINE", engine)
        sessions = {f"t{i}": _ibs_like(i + 1, 400 + 30 * i) for i in range(4)}
        specs = {name: spec for name in sessions}
        service = PredictionService(shards=3, batch_size=64)
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
        service = PredictionService(shards=2, batch_size=48)
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
        service = PredictionService(shards=4, batch_size=32)
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
        service = PredictionService(shards=2, batch_size=batch_size)
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
        service = PredictionService(shards=1, batch_size=32)
        service.handle({"op": "open", "session": "s", "spec": spec})
        marks = set(sync_points)
        for i in range(len(trace)):
            service.handle(
                {
                    "op": "events",
                    "session": "s",
                    "events": [
                        [int(trace.pcs[i]), int(trace.takens[i]),
                         int(trace.conditionals[i])]
                    ],
                }
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

        service = PredictionService(shards=1, batch_size=50)
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
        service.handle({"op": "events", "session": "s", "events": first})
        snap = service.handle({"op": "snapshot", "session": "s"})
        assert snap["ok"]

        # Replay the second half twice with a restore in between: the
        # rewind must reproduce the identical final digest both times.
        digests = []
        for _ in range(2):
            service.handle({"op": "events", "session": "s", "events": rest})
            service.handle({"op": "sync", "session": "s"})
            predictor = service.ring.shard_for("s").tenant("s").predictor
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
        service = PredictionService(shards=1, batch_size=50)
        service.handle({"op": "open", "session": "s", "spec": "bimodal:64"})
        snap = service.handle({"op": "snapshot", "session": "s"})
        corrupted = snap["state"][:-8] + "deadbeef"
        response = service.handle(
            {"op": "restore", "session": "s", "state": corrupted}
        )
        assert response["ok"] is False
        assert "restore rejected" in response["error"]


class TestAsyncServer:
    """The TCP front end: concurrent clients, real sockets, same parity."""

    def test_concurrent_clients_are_bit_identical_to_serial(self):
        async def scenario():
            sessions = {
                f"net{i}": _ibs_like(50 + i, 350) for i in range(3)
            }
            spec = "gshare:128:h6"
            async with PredictionServer(
                shards=2, batch_size=40, linger_s=0.002
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
                assert server.service.ring.stats()["sessions"] == 3
                return dict(zip(sessions, served)), sessions, spec

        served, sessions, spec = asyncio.run(scenario())
        specs = {name: spec for name in sessions}
        assert served == _serial_finals(sessions, specs)

    def test_protocol_errors_are_answered_not_fatal(self):
        lines = [
            b"this is not json\n",
            # The connection survives a garbage line...
            b'{"op": "open", "session": "s", "spec": "bimodal:64"}\n',
            # ...and an out-of-range PC is refused before it is buffered,
            # so the session keeps syncing instead of raising forever.
            b'{"op": "events", "session": "s", "events": [[%d, 1]]}\n'
            % 2**64,
            b'{"op": "sync", "session": "s"}\n',
        ]

        async def scenario():
            async with PredictionServer(shards=1, batch_size=8) as server:
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
        assert "2**64" in responses[2]["error"]
        assert responses[3]["conditional_branches"] == 0

    def test_unknown_session_error_surfaces_in_client(self):
        async def scenario():
            async with PredictionServer(shards=1, batch_size=8) as server:
                host, port = server.address
                async with PredictionClient(host, port) as client:
                    with pytest.raises(ServingError, match="ghost"):
                        await client.sync("ghost")

        asyncio.run(scenario())
