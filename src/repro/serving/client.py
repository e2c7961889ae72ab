"""Client for the prediction server.

:class:`PredictionClient` is a thin asyncio wrapper over the
newline-JSON protocol: one coroutine per op, strict request/response
ordering per connection (which is what keeps a tenant's event order
intact end to end).  Server-side error responses surface as
:class:`ServingError` so callers never mistake a refused request for a
successful one.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.serving.protocol import encode_message
from repro.sim.state import PredictorState

__all__ = ["PredictionClient", "ServingError"]

#: The longest response line the client reads.  A ``snapshot`` response
#: carries the state blob as hex, two characters per table byte (a
#: ``gshare:64k:h16`` snapshot is a 131 KB line), so the limit covers
#: tables up to 512 MiB rather than asyncio's 64 KiB default.
RESPONSE_LIMIT = 1 << 30


class ServingError(RuntimeError):
    """The server answered a request with an error response."""


class PredictionClient:
    """One protocol connection to a :class:`PredictionServer`."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "PredictionClient":
        """Open the TCP connection; returns self for chaining."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=RESPONSE_LIMIT
        )
        return self

    async def close(self) -> None:
        """Close the connection, tolerating a server-side hangup."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "PredictionClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- protocol ops ------------------------------------------------------

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and await its response line.

        Raises :class:`ServingError` on an error response and
        ``ConnectionError`` when the server hangs up mid-exchange.
        """
        if self._reader is None or self._writer is None:
            raise RuntimeError("client is not connected")
        self._writer.write(encode_message(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            raise ServingError(response.get("error", "unknown server error"))
        return response

    async def open(self, session: str, spec: str) -> Dict[str, Any]:
        """Open (or rejoin) a session with a predictor spec string."""
        return await self.request(
            {"op": "open", "session": session, "spec": spec}
        )

    async def events(
        self, session: str, events: Sequence[Tuple[int, ...]]
    ) -> Dict[str, Any]:
        """Stream events: ``(pc, taken)`` or ``(pc, taken, conditional)``,
        packed into one frame by :func:`encode_message`."""
        return await self.request(
            {"op": "events", "session": session, "events": events}
        )

    async def sync(self, session: str) -> Dict[str, Any]:
        """Flush the session's pending events; returns its stats."""
        return await self.request({"op": "sync", "session": session})

    async def snapshot(self, session: str) -> PredictorState:
        """Flush, then fetch the session's state, digest-verified."""
        response = await self.request(
            {"op": "snapshot", "session": session}
        )
        state = PredictorState.from_bytes(bytes.fromhex(response["state"]))
        if state.digest() != response["digest"]:
            raise ServingError(
                "snapshot digest disagrees with its payload"
            )  # pragma: no cover — from_bytes already checksums
        return state

    async def restore(
        self, session: str, state: PredictorState
    ) -> Dict[str, Any]:
        """Rewind the session to a previously captured state.

        The state travels hex-encoded in one request line, which the
        server caps at ``LINE_LIMIT`` (64 KiB).  So only a state blob
        under about 32 KB restores over TCP: a ``gshare:16k:h12`` state
        does, while a ``gshare:64k:h16`` one (a 131,578-character
        payload) raises :class:`ServingError` with the server's
        over-limit error and leaves the session unchanged.
        """
        return await self.request(
            {
                "op": "restore",
                "session": session,
                "state": state.to_bytes().hex(),
            }
        )

    async def close_session(self, session: str) -> Dict[str, Any]:
        """Flush and tear down a session; returns its final stats."""
        return await self.request({"op": "close", "session": session})

    async def stats(self) -> Dict[str, Any]:
        """Server-wide counters: sessions, flushes, replays."""
        return await self.request({"op": "stats"})
