"""The serving wire protocol: newline-delimited JSON messages.

One request per line, one response per line, strictly ordered per
connection (per-tenant event order is the correctness contract — the
engines are order-sensitive by design).  Requests carry an ``op`` plus
op-specific fields; responses carry ``ok`` plus either result fields or
an ``error`` string.  Predictor-state payloads travel as the hex wire
bytes of :meth:`repro.sim.state.PredictorState.to_bytes`, so corruption
is caught by the state checksum, not by the transport.

Ops:

=============  ==========================================================
``open``       ``session``, ``spec`` — create/attach a tenant
``events``     ``session``, ``events`` (list of ``[pc, taken]`` or
               ``[pc, taken, conditional]``) — buffer events; batches
               flush as they fill
``sync``       ``session`` — flush the tenant's pending buffer and
               return its cumulative stats (the read barrier)
``snapshot``   ``session`` — flush, then return the tenant's serialized
               ``PredictorState`` (hex) and its digest
``restore``    ``session``, ``state`` (hex) — flush pending, then load
               a previously snapshotted state into the tenant
``close``      ``session`` — flush, return final stats, drop the tenant
``stats``      server-wide counters (shards, sessions, flushes, replays)
=============  ==========================================================
"""

from __future__ import annotations

import json
from typing import Any, Dict

__all__ = [
    "ProtocolError",
    "decode_request",
    "encode_message",
    "error_response",
    "ok_response",
]

#: Every operation the server accepts (validated before dispatch).
OPS = frozenset(
    {"open", "events", "sync", "snapshot", "restore", "close", "stats"}
)

#: Ops that must name an open session.
SESSION_OPS = frozenset({"events", "sync", "snapshot", "restore", "close"})


class ProtocolError(ValueError):
    """A request line the server cannot interpret."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def _is_pc(value: Any) -> bool:
    """A branch address that fits the traces' uint64 PC column."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and 0 <= value < 2**64
    )


def _is_flag(value: Any) -> bool:
    """A ``taken`` / ``conditional`` flag: JSON bool or integer 0/1."""
    return isinstance(value, int) and value in (0, 1)


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` on undecodable JSON, a non-object
    payload, an unknown ``op``, missing required fields, or an event
    whose PC or flags are out of range — the server answers those with
    an error response rather than dying, and a rejected ``events`` line
    buffers nothing.
    """
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable request line: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    if op == "open":
        if not isinstance(request.get("session"), str) or not isinstance(
            request.get("spec"), str
        ):
            raise ProtocolError("open needs string 'session' and 'spec'")
    elif op in SESSION_OPS:
        if not isinstance(request.get("session"), str):
            raise ProtocolError(f"{op} needs a string 'session'")
    if op == "events":
        events = request.get("events")
        if not isinstance(events, list):
            raise ProtocolError("events needs an 'events' list")
        for event in events:
            if (
                not isinstance(event, list)
                or not 2 <= len(event) <= 3
                or not _is_pc(event[0])
                or not all(_is_flag(flag) for flag in event[1:])
            ):
                raise ProtocolError(
                    "each event is [pc, taken] or [pc, taken, conditional] "
                    "with 0 <= pc < 2**64 and flags bool or 0/1"
                )
    if op == "restore" and not isinstance(request.get("state"), str):
        raise ProtocolError("restore needs a hex 'state' payload")
    return request


def ok_response(**fields: Any) -> Dict[str, Any]:
    """A success response carrying ``fields``."""
    response: Dict[str, Any] = {"ok": True}
    response.update(fields)
    return response


def error_response(message: str) -> Dict[str, Any]:
    """An error response carrying ``message``."""
    return {"ok": False, "error": message}
