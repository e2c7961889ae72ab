"""The packed ``events`` frame: codec round trip, hostile frames, cost.

An ``events`` request carries its events as one base64 frame (``n``
little-endian ``uint64`` PCs, then ``n`` flag bytes).  These tests pin
the codec (every PC and flag value survives ``encode_message`` then
``decode_request``), the server's answer to frames it cannot decode
(an error, nothing buffered, the connection and every other tenant
unharmed), and the point of the frame: no Python runs per event
between the request line and the tenant's buffer.
"""

from __future__ import annotations

import asyncio
import base64
import json
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serving.client import PredictionClient
from repro.serving.protocol import ProtocolError, decode_request, encode_message
from repro.serving.server import LINE_LIMIT, PredictionServer, PredictionService
from repro.sim.config import make_predictor
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace

_PC = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
_FLAG = st.sampled_from([0, 1, False, True])
_EVENT = st.one_of(
    st.tuples(_PC, _FLAG).map(list), st.tuples(_PC, _FLAG, _FLAG).map(list)
)


def _events_message(events, session="s"):
    return {"op": "events", "session": session, "events": events}


def _frame(events) -> str:
    return json.loads(encode_message(_events_message(events)))["events"]


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(_EVENT, max_size=40))
    @example(events=[[0, 0, 0], [2**64 - 1, 1, 0], [4, 0, 1], [8, 1, 1], [12, 0]])
    def test_round_trip(self, events):
        columns = decode_request(encode_message(_events_message(events)))["events"]
        assert columns.pcs.tolist() == [event[0] for event in events]
        assert columns.takens.tolist() == [int(event[1]) for event in events]
        assert columns.conditionals.tolist() == [
            int(event[2]) if len(event) > 2 else 1 for event in events
        ]
        assert len(_frame(events)) == 12 * len(events)

    def test_worked_example(self):
        # The example in the protocol module's docstring and docs/serving.md.
        frame = _frame([[0x400010, True], [0x400014, False, False]])
        assert frame == "EABAAAAAAAAUAEAAAAAAAAMA"
        assert base64.b64decode(frame) == (
            bytes.fromhex("1000400000000000" "1400400000000000") + b"\x03\x00"
        )

    def test_a_line_carries_about_5400_events(self):
        def line(count):
            return encode_message(_events_message([[2**64 - 1, 1, 1]] * count))

        fits = (LINE_LIMIT - len(line(0))) // 12
        assert len(line(fits)) <= LINE_LIMIT < len(line(fits + 1))
        assert 5_400 <= fits < 5_500

    def test_responses_are_not_packed(self):
        # ``close`` and ``sync`` answer with an ``events`` count.
        response = {"ok": True, "events": 3}
        assert json.loads(encode_message(response)) == response


#: Frames no encoder writes, each with the error the server answers.
HOSTILE_FRAMES = {
    "bad-base64": ("AAAA!AAA", "not base64"),
    "not-whole-events": (base64.b64encode(bytes(10)).decode(), "9 bytes an event"),
    "flag-above-3": (base64.b64encode(bytes(8) + b"\x04").decode(), "above 3"),
    "non-string": ([[4, 1]], "base64 'events' frame"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_hostile_frame_is_refused_by_the_decode_step(name):
    frame, error = HOSTILE_FRAMES[name]
    line = json.dumps(_events_message(frame)).encode("utf-8")
    with pytest.raises(ProtocolError, match=error):
        decode_request(line)


def _trace(seed: int, length: int) -> Trace:
    pcs, takens, conditionals = [], [], []
    value = seed
    for _ in range(length):
        value = (value * 1103515245 + 12345) % 2**31
        pcs.append(4 * (value % 53))
        takens.append((value >> 9) & 1)
        conditionals.append(0 if value % 11 == 0 else 1)
    return Trace.from_columns(pcs, takens, conditionals, name=f"t{seed}")


def _rows(trace: Trace, lo: int, hi: int):
    pcs, takens = trace.pcs.tolist(), trace.takens.tolist()
    conditionals = trace.conditionals.tolist()
    return [[pcs[i], takens[i], conditionals[i]] for i in range(lo, hi)]


def _serial(trace: Trace, spec: str):
    predictor = make_predictor(spec)
    result = simulate_fast(predictor, trace, label=spec)
    return (
        result.conditional_branches,
        result.mispredictions,
        PredictorState.capture(predictor).digest(),
    )


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_hostile_frame_over_tcp_buffers_nothing_and_harms_no_one(name):
    """The sender gets an error and keeps its connection and session;
    nothing of the frame is buffered, and every tenant, the sender's
    included, ends byte-identical to a serial run of its own events."""
    frame, error = HOSTILE_FRAMES[name]
    spec = "gshare:128:h6"
    traces = {"sender": _trace(3, 300), "other": _trace(4, 300)}

    async def scenario():
        async with PredictionServer(batch_size=40, linger_s=0.002) as server:
            host, port = server.address

            async def sender():
                reader, writer = await asyncio.open_connection(host, port)

                async def call(line: bytes) -> dict:
                    writer.write(line)
                    await writer.drain()
                    return json.loads(await reader.readline())

                trace = traces["sender"]
                assert (await call(encode_message(
                    {"op": "open", "session": "sender", "spec": spec}
                )))["ok"]
                first = await call(encode_message(
                    _events_message(_rows(trace, 0, 150), "sender")
                ))
                assert first["ok"], first
                await asyncio.sleep(0)
                hostile = json.dumps(_events_message(frame, "sender"))
                refused = await call(hostile.encode("utf-8") + b"\n")
                synced = await call(encode_message({"op": "sync", "session": "sender"}))
                rest = await call(encode_message(
                    _events_message(_rows(trace, 150, len(trace)), "sender")
                ))
                writer.close()
                await writer.wait_closed()
                return refused, synced, rest

            async def other():
                trace = traces["other"]
                async with PredictionClient(host, port) as client:
                    await client.open("other", spec)
                    for lo in range(0, len(trace), 30):
                        await client.events("other", _rows(trace, lo, lo + 30))
                        await asyncio.sleep(0)

            (refused, synced, rest), _ = await asyncio.gather(sender(), other())
            served = {}
            for session in traces:
                stats = server.service.handle({"op": "sync", "session": session})
                predictor = server.service.shard.tenant(session).predictor
                served[session] = (
                    stats["conditional_branches"],
                    stats["mispredictions"],
                    PredictorState.capture(predictor).digest(),
                )
            return refused, synced, rest, served

    refused, synced, rest, served = asyncio.run(scenario())
    assert refused["ok"] is False and error in refused["error"]
    assert synced["ok"] and synced["events"] == 150 and synced["pending"] == 0
    assert rest["ok"] and rest["buffered"] == 150
    assert served == {name: _serial(trace, spec) for name, trace in traces.items()}


def test_client_snapshots_a_large_table_over_tcp():
    # A gshare:64k:h16 snapshot response is a 131 KB line, twice
    # asyncio's default read limit.
    spec = "gshare:64k:h16"
    trace = _trace(9, 500)

    async def scenario():
        async with PredictionServer(batch_size=64) as server:
            host, port = server.address
            async with PredictionClient(host, port) as client:
                await client.open("s", spec)
                await client.events("s", _rows(trace, 0, len(trace)))
                state = await client.snapshot("s")
                stats = await client.sync("s")  # the connection is still in step
                return stats, state

    stats, state = asyncio.run(scenario())
    assert len(state.to_bytes().hex()) > 2 * (64 << 10)
    assert (stats["conditional_branches"], stats["mispredictions"], state.digest()) == (
        _serial(trace, spec)
    )


def _profiled_calls(service: PredictionService, line: bytes) -> Counter:
    """Every call (Python or C) and every executed Python line, by
    function, that decoding and handling ``line`` makes.  Line events
    also catch a per-event loop that calls nothing, such as a
    comprehension over the columns."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[event, frame.f_code.co_name if event == "call" else arg.__name__] += 1

    def trace(frame, event, arg):
        if event == "line":
            calls[event, frame.f_code.co_name, frame.f_lineno] += 1
        return trace

    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        response = service.handle(decode_request(line))
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    assert response["ok"] and response["flushed"] == 0, response
    return calls


def test_no_python_runs_per_event():
    """Decoding and buffering a frame makes the same calls at 100 events
    as at 5,000: nothing between the request line and the tenant's
    buffer is per event."""
    service = PredictionService(batch_size=10**6)
    service.handle({"op": "open", "session": "s", "spec": "gshare:256:h8"})

    def line(count):
        rows = [[4 * (i % 97), i % 2, int(i % 5 != 0)] for i in range(count)]
        return encode_message(_events_message(rows))

    _profiled_calls(service, line(10))  # first-use imports and caches
    small = _profiled_calls(service, line(100))
    large = _profiled_calls(service, line(5_000))
    assert small == large
    assert service.shard.tenant("s").pending == 5_110
