"""The prediction server: an asyncio front end over one tenant table.

Two layers, separable on purpose:

- :class:`PredictionService` is the synchronous request dispatcher —
  the tenant table, tenant lifecycle, micro-batch flushes.  It is directly
  usable in-process (the differential tests drive it without sockets,
  so engine parity failures surface as clean assertions, not connection
  resets).
- :class:`PredictionServer` wraps the service in an asyncio TCP server
  speaking the newline-JSON protocol (:mod:`repro.serving.protocol`),
  with a linger timer so partial batches don't wait forever.

Concurrency model: requests for one session are ordered by their
connection (the protocol is request/response per line).  Everything runs
on one event loop, and :meth:`PredictionService.handle` and the shard's
flushes are plain synchronous calls, so no coroutine can run in the
middle of a table mutation and no lock is needed.  Flush boundaries
never change results — the engines are warm-state exact — so the linger
timer can fire whenever it likes; it trades tail latency against batch
efficiency, nothing else.  That invariance is exactly what
``tests/serving/`` proves differentially.
"""

from __future__ import annotations

import asyncio
import warnings
from typing import Any, Dict, Optional, Tuple

from repro.serving.protocol import (
    EventColumns,
    ProtocolError,
    decode_request,
    encode_message,
    error_response,
    ok_response,
)
from repro.serving.shard import Shard
from repro.sim.state import PredictorState, StateError
from repro.util import envvars

__all__ = ["PredictionService", "PredictionServer", "default_linger_s"]

#: Longest request line the server reads (asyncio's default stream
#: limit).  At 12 base64 characters an event, an ``events`` line holds
#: about 5,400 events.  A longer line is answered with an error and
#: skipped; the connection and its sessions stay usable.
LINE_LIMIT = 2**16


def default_linger_s() -> Optional[float]:
    """Linger-flush period in seconds, or None when disabled.

    ``REPRO_SERVING_LINGER_MS`` (default 5 ms); the documented
    ``0/off/none/disabled`` values turn the timer off entirely — batches
    then flush only when full or on explicit ``sync``/``snapshot``/
    ``close`` barriers.
    """
    if envvars.SERVING_LINGER_MS.disabled():
        return None
    value = envvars.SERVING_LINGER_MS.float_value(5.0)
    if value is None or value <= 0:
        return None
    return value / 1000.0


class PredictionService:
    """Synchronous dispatcher: one request dict in, one response out."""

    def __init__(self, batch_size: Optional[int] = None):
        self.shard = Shard(batch_size)

    # -- request handling --------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one validated request (see protocol module for ops).

        ``request`` is what :func:`~repro.serving.protocol.decode_request`
        returns; in-process callers build it as
        ``decode_request(encode_message(message))``.  Client errors
        (unknown sessions, spec conflicts, undecoded events, corrupt
        state payloads) come back as error responses;
        anything else propagates (the TCP front end answers it with an
        error response and keeps the connection).
        """
        op = request["op"]
        shard = self.shard
        if op == "stats":
            return ok_response(
                sessions=len(shard.tenants),
                flushes=shard.flushes,
                replays=shard.replays,
            )
        if op == "open":
            session, spec = request["session"], request["spec"]
            try:
                shard.open(session, spec)
            except ValueError as exc:
                return error_response(str(exc))
            return ok_response(session=session)
        session = request["session"]
        try:
            if op == "events":
                return self._handle_events(shard, session, request["events"])
            if op == "sync":
                shard.flush(session)
                return ok_response(**shard.tenant(session).stats())
            if op == "snapshot":
                shard.flush(session)
                state = shard.tenant(session).snapshot()
                return ok_response(
                    session=session,
                    state=state.to_bytes().hex(),
                    digest=state.digest(),
                )
            if op == "restore":
                shard.flush(session)
                try:
                    state = PredictorState.from_bytes(
                        bytes.fromhex(request["state"])
                    )
                    shard.tenant(session).restore(state)
                except (ValueError, StateError) as exc:
                    return error_response(f"restore rejected: {exc}")
                return ok_response(session=session, digest=state.digest())
            if op == "close":
                return ok_response(**shard.close(session))
        except KeyError as exc:
            return error_response(str(exc.args[0]) if exc.args else str(exc))
        raise AssertionError(f"unroutable op {op!r}")  # pragma: no cover

    def _handle_events(
        self, shard: Shard, session: str, events: EventColumns
    ) -> Dict[str, Any]:
        # decode_request validated the frame; an in-process request
        # that skipped it is refused whole, so nothing unchecked is
        # buffered to fail every later flush of the session.
        if not isinstance(events, EventColumns):
            return error_response(
                "events must be a frame decoded by decode_request"
            )
        full = shard.append(session, events)
        flushed = shard.flush(session) if full else 0
        return ok_response(
            session=session,
            buffered=len(events.pcs),
            flushed=flushed,
            pending=shard.tenant(session).pending,
        )


class PredictionServer:
    """Asyncio TCP front end: newline-JSON requests over the service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_size: Optional[int] = None,
        linger_s: Optional[float] = None,
    ):
        self.service = PredictionService(batch_size=batch_size)
        self.host = host
        self.port = port
        self.linger_s = default_linger_s() if linger_s is None else (
            linger_s if linger_s > 0 else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._linger_task: Optional[asyncio.Task] = None
        self._connections: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not running")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "PredictionServer":
        """Bind the listening socket and start the linger flusher."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=LINE_LIMIT
        )
        if self.linger_s is not None:
            self._linger_task = asyncio.create_task(self._linger_loop())
        return self

    async def stop(self) -> None:
        """Stop the linger flusher, close the socket, reap connections.

        Nothing is flushed: events still pending stay buffered in
        :attr:`service`, where a ``sync`` (or any other flushing request)
        still evaluates them.
        """
        if self._linger_task is not None:
            self._linger_task.cancel()
            try:
                await self._linger_task
            except asyncio.CancelledError:
                pass
            self._linger_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Reap in-flight connection handlers now, not at loop teardown —
        # an orphaned handler cancelled mid-close logs a spurious
        # CancelledError traceback from the streams machinery.
        if self._connections:
            for task in self._connections:
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()

    async def __aenter__(self) -> "PredictionServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- internals ---------------------------------------------------------

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            return error_response(str(exc))
        try:
            return self.service.handle(request)
        except Exception as exc:
            # A server-side failure (e.g. a flush that kept crashing past
            # its replays, its batch requeued) answers this request only;
            # the connection and its sessions stay usable.
            return error_response(
                f"{request['op']} failed: {type(exc).__name__}: {exc}"
            )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    response = error_response(
                        f"request line exceeds {LINE_LIMIT} bytes "
                        "and was skipped"
                    )
                elif not line:
                    break
                elif not line.strip():
                    continue
                else:
                    response = await self._handle_line(line)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished; its tenants stay until closed
        except asyncio.CancelledError:
            # stop() reaps in-flight handlers; ending normally (not
            # cancelled) keeps the streams done-callback from logging a
            # spurious traceback on 3.11.
            pass
        finally:
            writer.close()

    async def _linger_loop(self) -> None:
        """Background flush of lingering partial batches.

        Safe at any cadence: flush boundaries are invisible to results,
        so this only bounds how long a slow tenant's tail events sit
        unbatched (the latency side of the batching trade-off).  A
        failed flush warns and leaves its batch pending for the next
        tick; the loop itself never dies of it.
        """
        assert self.linger_s is not None
        while True:
            await asyncio.sleep(self.linger_s)
            try:
                self.service.shard.flush()
            except Exception as exc:
                warnings.warn(
                    f"linger flush failed ({type(exc).__name__}: {exc}); "
                    "its batch stays pending for the next tick",
                    RuntimeWarning,
                )


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line; ``None`` when it overran ``LINE_LIMIT``.

    An over-limit line is read through its newline and dropped, so the
    connection resumes at the next request instead of parsing the
    line's tail as one.  ``b""`` means the client closed.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        try:
            await reader.readexactly(consumed)
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return b""
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
