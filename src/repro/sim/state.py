"""First-class, serializable predictor state.

Every predictor in the suite is a small object graph over a handful of
mutable leaf types — saturating-counter arrays, global, per-address and
path history registers, agree bias latches, dict-backed tagged
tables — plus immutable configuration scalars.  :class:`PredictorState`
captures that graph generically: a typed recursive walk produces a
JSON-able payload, :meth:`PredictorState.restore` writes it back *in
place* (list slices, dict refills) so every alias into the live
structures stays valid, and :meth:`PredictorState.to_bytes` /
:meth:`PredictorState.from_bytes` round-trip it through a checksummed
wire format.

Two layers ride on it:

- the serving layer (:mod:`repro.serving`) carries each tenant's
  predictor across micro-batch boundaries, snapshots it before every
  batch for ``serving-shard`` fault recovery, and ships it to clients
  through the ``snapshot``/``restore`` protocol ops;
- differential tests compare *final states*, not just misprediction
  counts, via :meth:`PredictorState.digest`.

Corruption policy: a payload that fails its checksum, names the wrong
class, or does not structurally fit the target predictor raises
(:class:`StateFormatError` / :class:`StateMismatchError`) — state is
never silently reset, and a failed :meth:`restore` never half-writes
(validation runs before the first mutation).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.core.bank import PredictorBank
from repro.core.counters import CounterArray, SaturatingCounter
from repro.core.history import GlobalHistory, PerAddressHistory
from repro.predictors.base import BranchPredictor
from repro.predictors.path import PathHistory

__all__ = [
    "PredictorState",
    "StateError",
    "StateFormatError",
    "StateMismatchError",
    "STATE_FORMAT",
    "STATE_VERSION",
]

#: Wire-format identifier embedded in every serialized state.
STATE_FORMAT = "repro-predictor-state"

#: Bumped on incompatible payload-encoding changes; :meth:`from_bytes`
#: refuses other versions rather than guessing.
STATE_VERSION = 1


class StateError(ValueError):
    """Base class for predictor-state capture/restore failures."""


class StateFormatError(StateError):
    """A serialized payload is corrupt, truncated or mis-versioned."""


class StateMismatchError(StateError):
    """A payload does not structurally fit the target predictor."""


#: Scalar leaves captured verbatim (JSON-native; bool before int by
#: isinstance order does not matter — both round-trip exactly).
_SCALARS = (bool, int, float, str, type(None))


def _encode(value: Any, path: str) -> Any:
    """Encode one attribute value into the JSON-able payload grammar."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, CounterArray):
        return {"k": "counters", "bits": value.bits, "v": list(value.values)}
    if isinstance(value, SaturatingCounter):
        return {"k": "counter", "bits": value.bits, "v": value.value}
    if isinstance(value, GlobalHistory):
        return {"k": "ghist", "bits": value.bits, "v": value.value}
    if isinstance(value, PerAddressHistory):
        return {"k": "pahist", "bits": value.bits, "v": list(value.table)}
    if isinstance(value, PathHistory):
        return {"k": "phist", "bits": value.bits, "v": value.value}
    if isinstance(value, PredictorBank):
        return {"k": "bank", "v": _encode(value.counters, path + ".counters")}
    if isinstance(value, BranchPredictor):
        return {"k": "pred", "v": _encode_fields(value, path)}
    if isinstance(value, tuple):
        return {
            "k": "tuple",
            "v": [_encode(item, path) for item in value],
        }
    if isinstance(value, list):
        return {"k": "list", "v": [_encode(item, path) for item in value]}
    if isinstance(value, dict):
        # Insertion order is state for the LRU-backed tagged table, so
        # dicts encode as ordered pairs, never as JSON objects.
        return {
            "k": "dict",
            "v": [
                [_encode(key, path), _encode(item, path)]
                for key, item in value.items()
            ],
        }
    if isinstance(value, (set, frozenset)):
        items = [_encode(item, path) for item in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"k": "set", "v": items}
    raise StateError(
        f"cannot capture attribute {path!r} of type "
        f"{type(value).__name__}; teach repro.sim.state about it rather "
        "than letting state silently escape snapshots"
    )


def _encode_fields(obj: Any, path: str) -> Dict[str, Any]:
    """Capture every non-callable attribute of a predictor-like object."""
    fields: Dict[str, Any] = {}
    for name, value in vars(obj).items():
        if callable(value) and not isinstance(value, BranchPredictor):
            continue
        if type(value).__module__ == "enum" or hasattr(value, "_value_"):
            continue  # UpdatePolicy and friends: configuration, not state
        fields[name] = _encode(value, f"{path}.{name}")
    return fields


def _kind(encoded: Any) -> str:
    if isinstance(encoded, _SCALARS):
        return "scalar"
    if isinstance(encoded, dict) and isinstance(encoded.get("k"), str):
        return encoded["k"]
    raise StateFormatError(f"malformed state payload node: {encoded!r}")


def _decode_key(encoded: Any) -> Any:
    """Rebuild a dict entry or set item (scalar or tuple of scalars)."""
    if isinstance(encoded, _SCALARS):
        return encoded
    if _kind(encoded) == "tuple":
        return tuple(_decode_key(item) for item in encoded["v"])
    raise StateFormatError(f"unsupported dict-entry payload: {encoded!r}")


def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise StateMismatchError(f"state does not fit target at {path}: {message}")


#: Scalar types one leaf may move between: an agree bias latch is None
#: until its slot first executes, then a bool.
_LATCH = (bool, type(None))


def _check_scalar(target: Any, encoded: Any, path: str) -> None:
    """A scalar leaf keeps its type (a latch may also flip set/unset)."""
    _check(
        type(encoded) is type(target)
        or (isinstance(target, _LATCH) and isinstance(encoded, _LATCH)),
        path,
        f"{type(encoded).__name__} payload over {type(target).__name__}",
    )


#: Payload kind -> (leaf type, attribute holding its register value(s)).
_REGISTERS = {
    "counters": (CounterArray, "values"),
    "counter": (SaturatingCounter, "value"),
    "ghist": (GlobalHistory, "value"),
    "pahist": (PerAddressHistory, "table"),
    "phist": (PathHistory, "value"),
}


def _check_registers(values: Any, size: int, bits: int, path: str) -> None:
    """``size`` ints (not bools), each one a ``bits``-wide register holds."""
    top = (1 << bits) - 1
    _check(
        isinstance(values, list) and len(values) == size, path,
        f"expected {size} values, got {values!r:.40}",
    )
    _check(
        all(type(value) is int for value in values)
        and (not values or (min(values) >= 0 and max(values) <= top)),
        path,
        f"values must be ints in [0, {top}]",
    )


def _apply(target: Any, encoded: Any, path: str, write: bool) -> Any:
    """Check ``encoded`` against ``target``; with ``write``, apply it.

    Returns the value the *attribute* should hold afterwards (the same
    object for in-place containers, the decoded scalar otherwise).
    :meth:`PredictorState.restore` runs a checking pass over the whole
    payload before the writing one, so a payload that cannot fully
    apply is refused before the first write — a failing restore never
    half-writes.
    """
    kind = _kind(encoded)
    if kind == "scalar":
        _check_scalar(target, encoded, path)
        return encoded
    if kind in _REGISTERS:
        leaf, attr = _REGISTERS[kind]
        _check(isinstance(target, leaf), path, f"expected {leaf.__name__}")
        _check(target.bits == encoded.get("bits"), path, "width differs")
        current, values = getattr(target, attr), encoded.get("v")
        if isinstance(current, list):
            _check_registers(values, len(current), target.bits, path)
            if write:
                current[:] = values
        else:
            _check_registers([values], 1, target.bits, path)
            if write:
                setattr(target, attr, values)
        return target
    if kind == "bank":
        _check(isinstance(target, PredictorBank), path, "expected PredictorBank")
        _apply(target.counters, encoded.get("v"), path + ".counters", write)
        return target
    if kind == "pred":
        _check(
            isinstance(target, BranchPredictor), path,
            "expected a nested predictor",
        )
        _apply_fields(target, encoded.get("v"), path, write)
        return target
    if kind == "tuple":
        _check(isinstance(target, tuple), path, "expected a tuple")
        return _decode_key(encoded)
    if kind == "list":
        items = encoded.get("v")
        _check(isinstance(target, list), path, "expected a list")
        _check(
            isinstance(items, list) and len(items) == len(target), path,
            f"expected a {len(target)}-item list",
        )
        values = [
            _apply(target[i], item, f"{path}[{i}]", write)
            for i, item in enumerate(items)
        ]
        if write:
            target[:] = values
        return target
    if kind == "dict":
        _check(isinstance(target, dict), path, "expected a dict")
        pairs = [
            (_decode_key(key), _decode_key(item)) for key, item in encoded["v"]
        ]
        if write:
            target.clear()
            target.update(pairs)
        return target
    if kind == "set":
        _check(isinstance(target, (set, frozenset)), path, "expected a set")
        items = {_decode_key(item) for item in encoded["v"]}
        if write:
            target.clear()
            target.update(items)
        return target
    raise StateFormatError(f"unknown state payload kind {kind!r} at {path}")


def _apply_fields(obj: Any, fields: Any, path: str, write: bool) -> None:
    """:func:`_apply` over every field of a predictor-like object."""
    if not isinstance(fields, dict):
        raise StateFormatError(f"malformed field mapping at {path}")
    for name, encoded in fields.items():
        _check(
            hasattr(obj, name), f"{path}.{name}",
            f"{type(obj).__name__} has no such attribute",
        )
        value = _apply(getattr(obj, name), encoded, f"{path}.{name}", write)
        if write:
            setattr(obj, name, value)


class PredictorState:
    """A complete, serializable snapshot of one predictor's mutable state."""

    __slots__ = ("predictor_class", "payload")

    def __init__(self, predictor_class: str, payload: Dict[str, Any]):
        self.predictor_class = predictor_class
        self.payload = payload

    # -- capture / restore -------------------------------------------------

    @classmethod
    def capture(cls, predictor: BranchPredictor) -> "PredictorState":
        """Deep-copy every mutable leaf of ``predictor`` into a payload."""
        return cls(
            type(predictor).__name__,
            _encode_fields(predictor, type(predictor).__name__),
        )

    def restore(self, predictor: BranchPredictor) -> None:
        """Write the snapshot back into ``predictor``, in place.

        Raises :class:`StateMismatchError` when the payload does not fit
        (wrong class, table geometry, missing attributes, a leaf of the
        wrong type or out of its register's range) *before* touching any
        predictor state.
        """
        if type(predictor).__name__ != self.predictor_class:
            raise StateMismatchError(
                f"state captured from {self.predictor_class} cannot "
                f"restore into {type(predictor).__name__}"
            )
        _apply_fields(predictor, self.payload, self.predictor_class, False)
        _apply_fields(predictor, self.payload, self.predictor_class, True)

    # -- serialization -----------------------------------------------------

    def canonical(self) -> str:
        """Deterministic JSON of the payload (the digest input)."""
        return json.dumps(
            self.payload, sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 over class name + canonical payload."""
        material = self.predictor_class + "\n" + self.canonical()
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def to_bytes(self) -> bytes:
        """Serialize to the checksummed wire format."""
        document = {
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "class": self.predictor_class,
            "digest": self.digest(),
            "payload": self.payload,
        }
        return json.dumps(document, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PredictorState":
        """Parse and verify a :meth:`to_bytes` document.

        Raises :class:`StateFormatError` on anything short of a byte-
        perfect document: bad JSON, wrong format/version markers, or a
        checksum mismatch (bit flips in the payload *or* the digest).
        """
        try:
            document = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StateFormatError(f"undecodable predictor state: {exc}") from None
        if not isinstance(document, dict):
            raise StateFormatError("predictor state must be a JSON object")
        if document.get("format") != STATE_FORMAT:
            raise StateFormatError(
                f"not a {STATE_FORMAT} document: "
                f"format={document.get('format')!r}"
            )
        if document.get("version") != STATE_VERSION:
            raise StateFormatError(
                f"unsupported state version {document.get('version')!r} "
                f"(expected {STATE_VERSION})"
            )
        klass = document.get("class")
        payload = document.get("payload")
        if not isinstance(klass, str) or not isinstance(payload, dict):
            raise StateFormatError("predictor state missing class/payload")
        state = cls(klass, payload)
        if document.get("digest") != state.digest():
            raise StateFormatError(
                "predictor-state checksum mismatch: the payload was "
                "corrupted in flight or at rest"
            )
        return state

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictorState):
            return NotImplemented
        return (
            self.predictor_class == other.predictor_class
            and self.payload == other.payload
        )

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return NotImplemented if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash((self.predictor_class, self.canonical()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PredictorState {self.predictor_class} "
            f"digest={self.digest()[:12]}>"
        )
