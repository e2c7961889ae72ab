"""Serving workloads: a ``PredictionServer`` subprocess driven over TCP.

The load generator is this process: one asyncio loop with two
connections, every request pre-encoded with the protocol's own
``encode_message`` before any clock starts.  The server is
``server_main.py`` in a process of its own.  While they measure, each
runs on a CPU of its own.  Each round opens fresh sessions, streams their
events, then snapshots and closes every session; the final counts and
state digests are checked against serial ``simulate_fast`` runs over the
same events.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import Outcome, Tracer, digest, fast_rate, median, percentile, tail

from repro.serving.protocol import encode_message
from repro.sim import make_predictor, simulate_fast
from repro.sim.state import PredictorState

BENCH_DIR = Path(__file__).resolve().parent
CONNECTIONS = 2
#: StreamReader line limit: a gshare:64k snapshot is ~0.4 MB of hex,
#: past asyncio's 64 KiB default.
READ_LIMIT = 1 << 24
#: share of a serve run given to each open-loop rate
OPEN_SHARE = 0.25
#: an open-loop phase whose generator ran later than this at p99 is invalid
LATE_LIMIT_S = 0.002
#: closed-loop throughput is the fast end of its rates over blocks of
#: consecutive responses at least this long, so a slow spell of the host
#: moves it far less than a total would
BLOCK_S = 0.25


def _cpus() -> Optional[Tuple[int, int]]:
    """CPUs for the load generator and the server, when there are two.

    Left to the scheduler, their placement changes from run to run and
    closed-loop latency with it: on a 2-CPU host the spread of
    ``serve_state``'s p50 over ten runs fell from 21% to 4% once pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


@dataclass(frozen=True)
class Profile:
    """One traffic mix."""

    parts: int  # sessions per trace (stride splits)
    specs: Tuple[str, ...]  # predictor spec per session, round-robin
    chunk: int  # events per request
    window: int  # closed-loop requests in flight per connection
    snapshot_every: int  # snapshot after every Nth events request of a session
    rates: Tuple[int, ...]  # open-loop request rates, req/s


PROFILES = {
    "serve": Profile(4, ("gshare:4k:h12",), 64, 8, 0, (1000, 2500)),
    "serve_state": Profile(
        2, ("gshare:64k:h16", "egskew:3x16k:h16:partial"), 256, 1, 16, ()
    ),
}


@dataclass(frozen=True)
class Session:
    name: str
    spec: str
    trace: object
    lane: int  # connection index


@dataclass(frozen=True)
class Request:
    kind: str  # "events" or "snapshot"
    session: int
    events: int
    end: int  # the session's events sent once this request is handled
    data: bytes


def _build(traces, profile: Profile):
    """Sessions and the round-robin request stream over them."""
    sessions: List[Session] = []
    for trace in traces:
        for part_index, part in enumerate(trace.stride_split(profile.parts)):
            k = len(sessions)
            spec = profile.specs[k % len(profile.specs)]
            sessions.append(Session(f"{trace.name}/{part_index}", spec, part, k % CONNECTIONS))
    per_session = []
    for k, session in enumerate(sessions):
        pcs = session.trace.pcs.tolist()
        takens = session.trace.takens.tolist()
        conditionals = session.trace.conditionals.tolist()
        requests = []
        for count, lo in enumerate(range(0, len(pcs), profile.chunk), 1):
            hi = min(lo + profile.chunk, len(pcs))
            events = [list(e) for e in zip(pcs[lo:hi], takens[lo:hi], conditionals[lo:hi])]
            message = {"op": "events", "session": session.name, "events": events}
            requests.append(Request("events", k, hi - lo, hi, encode_message(message)))
            if profile.snapshot_every and count % profile.snapshot_every == 0:
                message = {"op": "snapshot", "session": session.name}
                requests.append(Request("snapshot", k, 0, hi, encode_message(message)))
        per_session.append(requests)
    stream = [
        request
        for turn in itertools.zip_longest(*per_session)
        for request in turn
        if request is not None
    ]
    return sessions, stream


class Server:
    """``server_main.py`` in a subprocess; it stops when its stdin closes."""

    def __init__(self, trace_out: Optional[Path] = None, cpu: Optional[int] = None):
        command = [sys.executable, str(BENCH_DIR / "server_main.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        words = self.proc.stdout.readline().split()
        if words[:1] != [b"READY"]:
            self.stop()
            raise RuntimeError("prediction server failed to start")
        self.port = int(words[1])
        self.start_s = time.perf_counter() - started

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def call(self, message: dict) -> dict:
        self.writer.write(encode_message(message))
        await self.writer.drain()
        return _decode(await self.reader.readline())


def _decode(line: bytes) -> dict:
    if not line:
        return {"ok": False, "error": "connection closed"}
    return json.loads(line)


class Serving:
    """Closed-loop rounds, then open-loop phases at fixed rates."""

    def __init__(self, traces, name: str, work_dir: Path):
        self.profile = PROFILES[name]
        self.sessions, self.stream = _build(traces, self.profile)
        self.lanes = [
            [r for r in self.stream if self.sessions[r.session].lane == lane]
            for lane in range(CONNECTIONS)
        ]
        self.work_dir = work_dir
        #: (session, events sent) -> digests the server reported at that point
        self.digests: Dict[Tuple[int, int], set] = {}
        #: (session, events sent) -> set of (conditional_branches, mispredictions)
        self.counts: Dict[Tuple[int, int], set] = {}
        self.measures = 0

    # -- the load generator ---------------------------------------------------

    async def _each_lane(self, conns, work) -> None:
        await asyncio.gather(*(work(lane, conns[lane]) for lane in range(CONNECTIONS)))

    async def _open_all(self, conns, out: Outcome) -> None:
        async def work(lane, conn):
            for session in self.sessions:
                if session.lane == lane:
                    response = await conn.call({"op": "open", "session": session.name, "spec": session.spec})
                    out.attempted += 1
                    if not response.get("ok"):
                        out.fail(f"open {session.name}: {response.get('error')}")

        await self._each_lane(conns, work)

    async def _finish_all(self, conns, sent: Dict[int, int], out: Outcome) -> None:
        """Snapshot and close every session, recording what the server reports."""

        async def work(lane, conn):
            for k, session in enumerate(self.sessions):
                if session.lane != lane:
                    continue
                snapshot = await conn.call({"op": "snapshot", "session": session.name})
                closed = await conn.call({"op": "close", "session": session.name})
                out.attempted += 2
                if not (snapshot.get("ok") and closed.get("ok")):
                    out.fail(f"finish {session.name}: {snapshot.get('error') or closed.get('error')}")
                    continue
                point = (k, sent.get(k, 0))
                self.digests.setdefault(point, set()).add(snapshot["digest"])
                counts = (closed["conditional_branches"], closed["mispredictions"])
                self.counts.setdefault(point, set()).add(counts)

        await self._each_lane(conns, work)

    def _receive(self, response: dict, request: Request, out: Outcome) -> None:
        if not response.get("ok"):
            out.fail(f"{request.kind} {self.sessions[request.session].name}: {response.get('error')}")
        elif request.kind == "snapshot":
            point = (request.session, request.end)
            self.digests.setdefault(point, set()).add(response["digest"])

    async def _closed_round(self, conns, samples: Dict[str, list], out: Outcome) -> List[float]:
        """Every session's whole stream, ``window`` requests in flight per lane.

        Returns the events-per-second rate of each block of consecutive
        responses at least ``BLOCK_S`` long; a round shorter than that is
        one block.
        """
        completions: List[Tuple[float, int]] = []

        async def work(lane, conn):
            pending: deque = deque()

            async def receive():
                line = await conn.reader.readline()
                now = time.perf_counter()
                request, sent_at = pending.popleft()
                samples[request.kind].append(now - sent_at)
                completions.append((now, request.events))
                self._receive(_decode(line), request, out)

            for request in self.lanes[lane]:
                if len(pending) >= self.profile.window:
                    await receive()
                conn.writer.write(request.data)
                pending.append((request, time.perf_counter()))
            while pending:
                await receive()

        await self._open_all(conns, out)
        started = time.perf_counter()
        await self._each_lane(conns, work)
        wall = time.perf_counter() - started
        out.attempted += len(self.stream)
        await self._finish_all(conns, {k: len(s.trace) for k, s in enumerate(self.sessions)}, out)
        rates, start, events = [], started, 0
        for when, count in completions:
            events += count
            if when - start >= BLOCK_S:
                rates.append(events / (when - start))
                start, events = when, 0
        return rates or [sum(count for _, count in completions) / wall]

    async def _open_loop(self, conns, rate: int, seconds: float, out: Outcome):
        """Send on a fixed schedule; latency counts from each request's due time."""
        requests = self.stream[: max(1, min(len(self.stream), int(rate * seconds)))]
        pending = [deque() for _ in range(CONNECTIONS)]
        expected = [0] * CONNECTIONS
        for request in requests:
            expected[self.sessions[request.session].lane] += 1
        latencies: List[float] = []
        lateness: List[float] = []

        async def collect(lane):
            for _ in range(expected[lane]):
                line = await conns[lane].reader.readline()
                now = time.perf_counter()
                request, due = pending[lane].popleft()
                latencies.append(now - due)
                self._receive(_decode(line), request, out)

        await self._open_all(conns, out)
        receivers = [asyncio.create_task(collect(lane)) for lane in range(CONNECTIONS)]
        start = time.perf_counter() + 0.01
        sent: Dict[int, int] = {}
        for index, request in enumerate(requests):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lane = self.sessions[request.session].lane
            lateness.append(time.perf_counter() - due)
            conns[lane].writer.write(request.data)
            pending[lane].append((request, due))
            sent[request.session] = request.end
        await asyncio.gather(*receivers)
        out.attempted += len(requests)
        await self._finish_all(conns, sent, out)
        return latencies, lateness

    async def _drive(self, port: int, seconds: float, out: Outcome) -> dict:
        conns = []
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=READ_LIMIT)
            conns.append(Connection(reader, writer))
        try:
            closed_budget = seconds * (1.0 - OPEN_SHARE * len(self.profile.rates))
            samples: Dict[str, list] = {"events": [], "snapshot": []}
            rates: List[float] = []
            rounds = 0
            started = time.perf_counter()
            while True:  # whole rounds, as harness.repeat_for runs passes
                rates += await self._closed_round(conns, samples, out)
                rounds += 1
                spent = time.perf_counter() - started
                if spent + spent / rounds / 2 > closed_budget:
                    break
            phases = {}
            for rate in self.profile.rates:
                phases[rate] = await self._open_loop(conns, rate, seconds * OPEN_SHARE, out)
            return {"rounds": rounds, "rates": rates, "samples": samples, "phases": phases}
        finally:
            for conn in conns:
                conn.writer.close()
                try:
                    await conn.writer.wait_closed()
                except ConnectionError:
                    pass

    # -- workload interface ---------------------------------------------------

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
        out = Outcome()
        self.measures += 1
        spans = self.work_dir / f"server-spans-{self.measures}.json"
        cpus = _cpus()
        affinity = os.sched_getaffinity(0)
        server = Server(spans if tracer is not None else None, cpus[1] if cpus else None)
        try:
            if cpus:
                os.sched_setaffinity(0, {cpus[0]})
            report = asyncio.run(self._drive(server.port, seconds, out))
        finally:
            os.sched_setaffinity(0, affinity)
            server.stop()

        events = report["samples"]["events"]
        out.metrics["branches_per_s"] = fast_rate(report["rates"])
        out.detail["rounds"] = (report["rounds"], "count")
        out.detail["blocks"] = (len(report["rates"]), "count")
        for kind, samples in report["samples"].items():
            for name, value in (tail(samples) if samples else {}).items():
                unit = "count" if name == "n" else "ms"
                out.detail[f"closed.{kind}.{name}"] = (value if name == "n" else value * 1e3, unit)
        late_p99 = 0.0
        for rate, (latencies, lateness) in report["phases"].items():
            for name, value in tail(latencies).items():
                unit = "count" if name == "n" else "ms"
                out.detail[f"r{rate}.{name}"] = (value if name == "n" else value * 1e3, unit)
            late = percentile(lateness, 0.99)
            late_p99 = max(late_p99, late)
            out.detail[f"r{rate}.late_p99"] = (late * 1e3, "ms")
            out.detail[f"r{rate}.valid"] = (late <= LATE_LIMIT_S, "bool")
        out.metrics["p50_ms"] = median(events) * 1e3

        if tracer is not None:
            out.layers.update(_server_layers(Tracer.from_json(json.loads(spans.read_text()))))
            out.layers["loadgen.late_p99_ms"] = late_p99 * 1e3
        return out

    def _serial(self, k: int, end: int):
        """Serial run of session ``k``'s first ``end`` events: counts, digest, predictor."""
        session = self.sessions[k]
        predictor = make_predictor(session.spec)
        result = simulate_fast(predictor, session.trace.head(end), label=session.spec)
        counts = (result.conditional_branches, result.mispredictions)
        return counts, PredictorState.capture(predictor).digest(), predictor

    def verify(self, out: Outcome) -> None:
        for point in sorted(set(self.digests) | set(self.counts)):
            counts, state, _ = self._serial(*point)
            out.attempted += 1
            seen_counts = self.counts.get(point, {counts})
            if self.digests.get(point) != {state} or seen_counts != {counts}:
                name = self.sessions[point[0]].name
                out.fail(f"{name} after {point[1]} events differs from a serial run")
        # The pin is the final state's behaviour, not its encoding: each
        # session's serial predictor replays its own events once more.
        tenants = []
        for k, session in enumerate(self.sessions):
            counts, _, predictor = self._serial(k, len(session.trace))
            probe = simulate_fast(predictor, session.trace, label=session.spec)
            tenants.append([session.name, session.spec, *counts, probe.mispredictions])
        out.pins["tenants"] = digest(tenants)


def _server_layers(spans: Tracer) -> Dict[str, float]:
    """Per-layer serving metrics from the server's spans."""
    counters = spans.counters

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    flushes = counters.get("flushes", 0)
    return {
        "serving.decode_s": spans.mean("decode"),
        "serving.encode_s": spans.mean("encode"),
        "serving.events_self_s": spans.mean("op.events", own=True),
        "serving.flush_s": per(counters.get("flush_s", 0.0), flushes),
        "serving.flush_engine_s": per(spans.total.get("engine", 0.0), flushes),
        "serving.flush_capture_s": per(counters.get("flush_capture_s", 0.0), flushes),
        "serving.linger_flushes": counters.get("linger_flushes", 0),
        "serving.linger_flush_s": per(
            counters.get("linger_flush_s", 0.0), counters.get("linger_flushes", 0)
        ),
        "serving.batch_fill_ratio": per(
            counters.get("flush_events", 0), flushes * counters.get("batch_size", 1)
        ),
        "state.to_bytes_s": spans.mean("to_bytes"),
        "state.snapshot_bytes_mean": per(
            counters.get("state_bytes", 0), spans.calls.get("to_bytes", 0)
        ),
    }
