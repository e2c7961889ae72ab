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
``events``     ``session``, ``events`` (a packed frame, below) — buffer
               events; batches flush as they fill
``sync``       ``session`` — flush the tenant's pending buffer and
               return its cumulative stats (the read barrier)
``snapshot``   ``session`` — flush, then return the tenant's serialized
               ``PredictorState`` (hex) and its digest
``restore``    ``session``, ``state`` (hex) — flush pending, then load
               a previously snapshotted state into the tenant
``close``      ``session`` — flush, return final stats, drop the tenant
``stats``      server-wide counters (sessions, flushes, replays)
=============  ==========================================================

The ``events`` frame is one base64 string over ``9 * n`` bytes: the
``n`` branch addresses as little-endian ``uint64``, then ``n`` flag
bytes, bit 0 ``taken`` and bit 1 ``conditional``.  The two events
``[0x400010, taken]`` and ``[0x400014, not taken, unconditional]``
pack as ``10 00 40 00 00 00 00 00 | 14 00 40 00 00 00 00 00 | 03 | 00``,
that is ``"EABAAAAAAAAUAEAAAAAAAAMA"``: 12 characters an event, so a
line of ``LINE_LIMIT`` (64 KiB) carries about 5,400 events.
:func:`encode_message` is the frame's one writer: it packs the
``events`` list of an ``events`` request (``[pc, taken]`` or
``[pc, taken, conditional]`` entries, ``conditional`` defaulting to
true).  :func:`decode_request` is its one reader: it decodes the frame
once into numpy columns (:class:`EventColumns`), so no Python runs per
event between the socket and the engine.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
from typing import Any, Dict, NamedTuple, Sequence

import numpy as np

__all__ = [
    "EVENT_BYTES",
    "EventColumns",
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

#: Frame bytes per event: a ``uint64`` address and one flag byte.
EVENT_BYTES = 9

#: The flag bits of an event: bit 0 taken, bit 1 conditional.
_TAKEN, _CONDITIONAL = 1, 2

#: The frame's PC column: little-endian whatever the host's order.
_PC_DTYPE = np.dtype("<u8")


class ProtocolError(ValueError):
    """A request line the server cannot interpret."""


class EventColumns(NamedTuple):
    """One ``events`` frame, decoded: a column per event field."""

    pcs: np.ndarray  # uint64
    takens: np.ndarray  # uint8, 0 or 1
    conditionals: np.ndarray  # uint8, 0 or 1

    @classmethod
    def of(cls, trace: Any) -> "EventColumns":
        """The columns of a :class:`~repro.traces.trace.Trace`'s events."""
        return cls(trace.pcs, trace.takens, trace.conditionals)


def _pack_events(events: Sequence[Sequence[Any]]) -> str:
    """The base64 ``events`` frame of ``[pc, taken(, conditional)]`` entries."""
    try:
        pcs = struct.pack(f"<{len(events)}Q", *(event[0] for event in events))
        flags = bytes(_flag_byte(event) for event in events)
    except (struct.error, TypeError, IndexError, ValueError):
        raise ProtocolError(
            "each event is [pc, taken] or [pc, taken, conditional] "
            "with 0 <= pc < 2**64 and flags bool or 0/1"
        ) from None
    return base64.b64encode(pcs + flags).decode("ascii")


def _flag_byte(event: Sequence[Any]) -> int:
    """An event's flag byte; ValueError for a bool address, more than
    three fields or a flag other than 0 or 1."""
    taken = event[1]
    conditional = event[2] if len(event) > 2 else 1
    if (
        len(event) > 3
        or isinstance(event[0], bool)
        or taken not in (0, 1)
        or conditional not in (0, 1)
    ):
        raise ValueError("malformed event")
    return (_TAKEN if taken else 0) | (_CONDITIONAL if conditional else 0)


def encode_message(message: Dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line.

    An ``events`` request's ``events`` list is packed into its frame;
    :class:`ProtocolError` when an entry does not fit it.
    """
    if message.get("op") == "events":
        message = {**message, "events": _pack_events(message["events"])}
    text = json.dumps(message, sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def _decode_events(frame: Any) -> EventColumns:
    """Decode one ``events`` frame into its columns.

    Raises :class:`ProtocolError` on a non-string frame, bad base64, a
    length that is not a whole number of events or a flag byte above 3.
    """
    if not isinstance(frame, str):
        raise ProtocolError("events needs a base64 'events' frame")
    try:
        raw = base64.b64decode(frame, validate=True)
    except (binascii.Error, ValueError):
        raise ProtocolError("events frame is not base64") from None
    count, extra = divmod(len(raw), EVENT_BYTES)
    if extra:
        raise ProtocolError(
            f"events frame of {len(raw)} bytes is not {EVENT_BYTES} bytes an event"
        )
    flags = np.frombuffer(raw, dtype=np.uint8, offset=8 * count)
    if flags.max(initial=0) > _TAKEN | _CONDITIONAL:
        raise ProtocolError("events frame has a flag byte above 3")
    pcs = np.frombuffer(raw, dtype=_PC_DTYPE, count=count).astype(np.uint64, copy=False)
    return EventColumns(pcs, flags & _TAKEN, flags >> 1)


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` on undecodable JSON, a non-object
    payload, an unknown ``op``, missing required fields, or a malformed
    ``events`` frame — the server answers those with an error response
    rather than dying, and a rejected ``events`` line buffers nothing.
    An ``events`` request comes back with its frame decoded into
    :class:`EventColumns`.
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
        request["events"] = _decode_events(request.get("events"))
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
