"""First-class, serializable predictor state.

Every predictor in the suite is a small object graph over a handful of
mutable leaf types — one-byte saturating-counter buffers, agree's
``int8`` bias latches, global, per-address and path history registers,
dict-backed tagged tables — plus configuration scalars.
:class:`PredictorState` captures that graph generically as one
versioned binary blob::

    b"RPST" | version (u32 LE) | header length (u32 LE)
    | header (UTF-8 JSON) | array bytes | SHA-256 of everything before

The header is small: the predictor's class and spec string
(:func:`repro.sim.config.make_predictor` records it), the scalar,
register, dict and set leaves, and for each array leaf its element type
(``"B"`` counters, ``"b"`` latch codes), length and byte offset.  The
array bytes follow as the live buffers hold them, so a capture is one
byte copy of each table and :meth:`PredictorState.restore` a validated
copy back into the same buffers — every alias into the live structures
(the fast walks' views included) stays valid.

Two layers ride on it:

- the serving layer (:mod:`repro.serving`) carries each tenant's
  predictor across micro-batch boundaries, snapshots it before every
  batch for ``serving-shard`` fault recovery, and ships it to clients
  through the ``snapshot``/``restore`` protocol ops;
- differential tests compare *final states*, not just misprediction
  counts, via :meth:`PredictorState.digest`.

Corruption policy: a blob that fails its checksum, is truncated or has
trailing bytes, names another version, or does not fit the target
predictor raises (:class:`StateFormatError` /
:class:`StateMismatchError`) — state is never silently reset, and a
failed :meth:`restore` never half-writes (validation runs before the
first mutation).  Fitting means the same class and spec, the same
configuration scalars, tables of the same element type and length, and
every value in its leaf's range: counters within their width, latch
codes in {-1, 0, 1}, history registers within their width, and the
tagged tables' counters and history tags within theirs.
"""

from __future__ import annotations

import hashlib
import json
import struct
from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple

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

#: Magic bytes that open every serialized state.
STATE_FORMAT = b"RPST"

#: Bumped on incompatible blob-layout changes; :meth:`from_bytes`
#: refuses other versions rather than guessing.  Version 1 was a JSON
#: document with one list slot per counter.
STATE_VERSION = 2

#: Magic, version and header length.
_PREFIX = struct.Struct("<4sII")

_DIGEST_BYTES = hashlib.sha256().digest_size

#: Array leaf kind -> the element type its bytes hold.
_ARRAY_TYPES = {"counters": "B", "latches": "b"}

#: The bytes a latch code may take: -1 (unlatched), 0 and 1.  A
#: counter's bound is its table's width.
_LATCH_BYTES = bytes((0xFF, 0, 1))


class StateError(ValueError):
    """Base class for predictor-state capture/restore failures."""


class StateFormatError(StateError):
    """A serialized blob is corrupt, truncated or mis-versioned."""


class StateMismatchError(StateError):
    """A blob does not structurally fit the target predictor."""


#: Scalar leaves captured verbatim (JSON-native).
_SCALARS = (bool, int, float, str, type(None))


def _encode(value: Any, path: str, arrays: List[array]) -> Any:
    """Encode one attribute value into a header node; array leaves are
    appended to ``arrays`` and named by their byte offset."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, CounterArray):
        return {
            "k": "counters", "bits": value.bits,
            **_array_leaf(value.values, arrays),
        }
    if isinstance(value, array):
        if value.typecode != "b":
            raise StateError(f"cannot capture {value.typecode!r} array {path!r}")
        return {"k": "latches", **_array_leaf(value, arrays)}
    if isinstance(value, SaturatingCounter):
        return {"k": "counter", "bits": value.bits, "v": value.value}
    if isinstance(value, GlobalHistory):
        return {"k": "ghist", "bits": value.bits, "v": value.value}
    if isinstance(value, PerAddressHistory):
        return {"k": "pahist", "bits": value.bits, "v": list(value.table)}
    if isinstance(value, PathHistory):
        return {"k": "phist", "bits": value.bits, "v": value.value}
    if isinstance(value, PredictorBank):
        return {
            "k": "bank",
            "v": _encode(value.counters, path + ".counters", arrays),
        }
    if isinstance(value, BranchPredictor):
        return {"k": "pred", "v": _encode_fields(value, path, arrays)}
    if isinstance(value, tuple):
        return {
            "k": "tuple",
            "v": [_encode(item, path, arrays) for item in value],
        }
    if isinstance(value, list):
        return {
            "k": "list", "v": [_encode(item, path, arrays) for item in value]
        }
    if isinstance(value, dict):
        # Insertion order is state for the LRU-backed tagged table, so
        # dicts encode as ordered pairs, never as JSON objects.
        return {
            "k": "dict",
            "v": [
                [_encode(key, path, arrays), _encode(item, path, arrays)]
                for key, item in value.items()
            ],
        }
    if isinstance(value, (set, frozenset)):
        items = [_encode(item, path, arrays) for item in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"k": "set", "v": items}
    raise StateError(
        f"cannot capture attribute {path!r} of type "
        f"{type(value).__name__}; teach repro.sim.state about it rather "
        "than letting state silently escape snapshots"
    )


def _array_leaf(values: array, arrays: List[array]) -> Dict[str, Any]:
    """Element type, length and byte offset of an array leaf."""
    offset = sum(len(item) for item in arrays)
    arrays.append(values)
    return {"t": values.typecode, "n": len(values), "o": offset}


def _field_items(obj: Any) -> Iterator[Tuple[str, Any]]:
    """The attributes a snapshot holds: every non-callable, non-enum
    attribute, except the spec (the blob's header carries it)."""
    for name, value in vars(obj).items():
        if name == "spec":
            continue
        if callable(value) and not isinstance(value, BranchPredictor):
            continue
        if type(value).__module__ == "enum" or hasattr(value, "_value_"):
            continue  # UpdatePolicy and friends: configuration, not state
        yield name, value


def _encode_fields(obj: Any, path: str, arrays: List[array]) -> Dict[str, Any]:
    """Capture every stateful attribute of a predictor-like object."""
    return {
        name: _encode(value, f"{path}.{name}", arrays)
        for name, value in _field_items(obj)
    }


def _kind(encoded: Any) -> str:
    if isinstance(encoded, _SCALARS):
        return "scalar"
    if isinstance(encoded, dict) and isinstance(encoded.get("k"), str):
        return encoded["k"]
    raise StateFormatError(f"malformed state header node: {encoded!r:.80}")


def _items(encoded: Dict[str, Any], path: str) -> list:
    """The item list of a container node."""
    items = encoded.get("v")
    if not isinstance(items, list):
        raise StateFormatError(f"malformed {encoded['k']!r} node at {path}")
    return items


def _decode_key(encoded: Any, path: str) -> Any:
    """Rebuild a dict entry or set item (scalar or tuple of scalars)."""
    if isinstance(encoded, _SCALARS):
        return encoded
    if _kind(encoded) == "tuple":
        return tuple(_decode_key(item, path) for item in _items(encoded, path))
    raise StateFormatError(f"unsupported dict-entry node at {path}: {encoded!r:.80}")


def _is_int(value: Any) -> bool:
    """An int that is not a bool (``True == 1``, but it is no counter)."""
    return type(value) is int


def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise StateMismatchError(f"state does not fit target at {path}: {message}")


def _check_width(target: Any, encoded: Dict[str, Any], path: str) -> None:
    bits = encoded.get("bits")
    _check(_is_int(bits) and bits == target.bits, path, "width differs")


#: Register kind -> (leaf type, attribute holding its value(s)).
_REGISTERS = {
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
        all(_is_int(value) and 0 <= value <= top for value in values), path,
        f"values must be ints in [0, {top}]",
    )


def _check_tagged_table(owner: Any, pairs: List[Tuple[Any, Any]], path: str) -> None:
    """A tagged table's entries: ``(word address, history)`` keys the
    owner's history register can hold, counters within its width, and
    no more entries than it has (``fa:*``'s capacity)."""
    counter_bits = getattr(owner, "counter_bits", None)
    history = getattr(owner, "history", None)
    _check(
        _is_int(counter_bits) and isinstance(history, GlobalHistory), path,
        "only a tagged counter table may be a dict",
    )
    top, tags = (1 << counter_bits) - 1, 1 << history.bits
    _check(
        len(pairs) <= getattr(owner, "entries", len(pairs)), path,
        f"more than {getattr(owner, 'entries', 0)} entries",
    )
    for key, value in pairs:
        _check(
            isinstance(key, tuple) and len(key) == 2
            and all(_is_int(part) for part in key)
            and key[0] >= 0 and 0 <= key[1] < tags,
            path, f"key {key!r} is not a (word, {history.bits}-bit history) pair",
        )
        _check(
            _is_int(value) and 0 <= value <= top, path,
            f"counter {value!r} is not an int in [0, {top}]",
        )


def _apply_array(
    target: array, encoded: Dict[str, Any], allowed: bytes, path: str,
    body: memoryview, write: bool,
) -> None:
    """Check an array leaf against ``target``; with ``write``, copy its
    bytes from the blob's ``body`` into ``target``'s buffer (the same
    object stays live)."""
    _check(
        target.typecode == encoded["t"] and len(target) == encoded["n"], path,
        f"expected {len(target)} {target.typecode!r} entries, got "
        f"{encoded['n']} {encoded['t']!r}",
    )
    chunk = body[encoded["o"] : encoded["o"] + encoded["n"]]
    if write:  # the checking pass has seen every value
        with memoryview(target) as view, view.cast("B") as raw:
            raw[:] = chunk
    else:
        # translate() deletes every allowed byte: anything left is out of range.
        _check(
            not chunk.tobytes().translate(None, allowed), path,
            "a value is out of range",
        )


def _apply(
    target: Any, encoded: Any, path: str, body: memoryview, write: bool
) -> Any:
    """Check ``encoded`` against ``target``; with ``write``, apply it.

    Returns the value the *attribute* should hold afterwards (the same
    object for in-place containers, the decoded scalar otherwise).
    :meth:`PredictorState.restore` runs a checking pass over the whole
    header before the writing one, so a blob that cannot fully apply is
    refused before the first write — a failing restore never
    half-writes.
    """
    kind = _kind(encoded)
    if kind == "counters":
        _check(isinstance(target, CounterArray), path, "expected CounterArray")
        _check_width(target, encoded, path)
        allowed = bytes(range(target.max_value + 1))
        _apply_array(target.values, encoded, allowed, path, body, write)
        return target
    if kind == "latches":
        _check(
            isinstance(target, array) and target.typecode == "b", path,
            "expected bias latch codes",
        )
        _apply_array(target, encoded, _LATCH_BYTES, path, body, write)
        return target
    if kind in _REGISTERS:
        leaf, attr = _REGISTERS[kind]
        _check(isinstance(target, leaf), path, f"expected {leaf.__name__}")
        _check_width(target, encoded, path)
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
        _apply(target.counters, encoded.get("v"), path + ".counters", body, write)
        return target
    if kind == "pred":
        _check(
            isinstance(target, BranchPredictor), path,
            "expected a nested predictor",
        )
        _apply_fields(target, encoded.get("v"), path, body, write)
        return target
    if kind == "list":
        items = _items(encoded, path)
        _check(isinstance(target, list), path, "expected a list")
        _check(len(items) == len(target), path, f"expected a {len(target)}-item list")
        values = [
            _apply(target[i], item, f"{path}[{i}]", body, write)
            for i, item in enumerate(items)
        ]
        if write:
            target[:] = values
        return target
    if kind == "set":
        _check(isinstance(target, (set, frozenset)), path, "expected a set")
        items = {_decode_key(item, path) for item in _items(encoded, path)}
        _check(
            all(_is_int(item) and item >= 0 for item in items), path,
            "set items must be non-negative ints",
        )
        if write:
            target.clear()
            target.update(items)
        return target
    raise StateFormatError(f"unknown state header node kind {kind!r} at {path}")


def _apply_fields(
    obj: Any, fields: Any, path: str, body: memoryview, write: bool
) -> None:
    """:func:`_apply` over every field of a predictor-like object.

    The blob must name exactly the fields a capture of ``obj`` would.
    Scalars and tuples are configuration — they must equal the
    target's — except the ones the class lists in
    :attr:`~repro.predictors.base.BranchPredictor.state_scalars`,
    which are restored; a dict is a tagged table, checked against its
    owner.
    """
    if not isinstance(fields, dict):
        raise StateFormatError(f"malformed field mapping at {path}")
    current = dict(_field_items(obj))
    _check(
        set(fields) == set(current), path,
        f"fields {sorted(fields)} are not {type(obj).__name__}'s "
        f"{sorted(current)}",
    )
    stateful = getattr(obj, "state_scalars", ())
    for name, encoded in fields.items():
        where, target = f"{path}.{name}", current[name]
        kind = _kind(encoded)
        if kind in ("scalar", "tuple"):
            value = encoded if kind == "scalar" else _decode_key(encoded, where)
            if name in stateful:
                _check(
                    value is None or (_is_int(value) and value >= 0), where,
                    f"{value!r} is not a count",
                )
            else:
                _check(
                    type(value) is type(target) and value == target, where,
                    f"configuration {value!r} differs from {target!r}",
                )
        elif kind == "dict":
            _check(isinstance(target, dict), where, "expected a dict")
            pairs = _items(encoded, where)
            if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
                raise StateFormatError(f"malformed dict entry at {where}")
            value = [
                (_decode_key(key, where), _decode_key(item, where))
                for key, item in pairs
            ]
            _check_tagged_table(obj, value, where)
            if write:
                target.clear()
                target.update(value)
            value = target
        else:
            value = _apply(target, encoded, where, body, write)
        if write:
            setattr(obj, name, value)


def _array_leaves(node: Any) -> Iterator[Dict[str, Any]]:
    """Every array leaf under a header node."""
    if isinstance(node, dict):
        if isinstance(node.get("k"), str) and node["k"] in _ARRAY_TYPES:
            yield node
        for value in node.values():
            yield from _array_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _array_leaves(value)


def _check_body(fields: Dict[str, Any], size: int) -> None:
    """The array leaves are well formed and tile the ``size`` body bytes
    exactly: nothing truncated, nothing trailing, nothing shared."""
    leaves = list(_array_leaves(fields))
    for leaf in leaves:
        if not (
            leaf.get("t") == _ARRAY_TYPES[leaf["k"]]
            and _is_int(leaf.get("n")) and _is_int(leaf.get("o"))
            and leaf["n"] >= 0
        ):
            raise StateFormatError(f"malformed array leaf {leaf!r:.80}")
    end = 0
    for leaf in sorted(leaves, key=lambda leaf: leaf["o"]):
        if leaf["o"] != end:
            raise StateFormatError("array leaves do not tile the blob's body")
        end += leaf["n"]
    if end != size:
        raise StateFormatError(
            f"array leaves hold {end} bytes, the blob's body {size}"
        )


class PredictorState:
    """A complete, serializable snapshot of one predictor's mutable state,
    held as its binary blob (see the module docstring for the layout).

    A captured state hashes its blob lazily: the SHA-256 trailer is
    computed on the first :meth:`digest`, :meth:`to_bytes`, ``==`` or
    ``hash()``, so a snapshot that is only ever restored in-process (a
    serving flush's rollback copy) never pays for it.
    """

    __slots__ = ("predictor_class", "spec", "_content", "_blob", "_fields", "_body")

    def __init__(self, blob: bytes):
        """Parse and verify a blob (use :meth:`capture` /
        :meth:`from_bytes`).

        Raises:
            StateFormatError: on anything short of a byte-perfect blob of
                this version: a short or truncated blob, trailing bytes,
                wrong magic or version, a checksum mismatch (bit flips
                anywhere, the digest included), or a malformed header.
        """
        blob = bytes(blob)
        if len(blob) < _PREFIX.size + _DIGEST_BYTES:
            raise StateFormatError(f"predictor state of {len(blob)} bytes is truncated")
        magic, version, header_size = _PREFIX.unpack_from(blob)
        if magic != STATE_FORMAT:
            raise StateFormatError(
                f"not a predictor state: magic {magic!r}, not {STATE_FORMAT!r}"
            )
        if version != STATE_VERSION:
            raise StateFormatError(
                f"unsupported state version {version} (expected {STATE_VERSION})"
            )
        content = memoryview(blob)[: len(blob) - _DIGEST_BYTES]
        if hashlib.sha256(content).digest() != blob[len(content):]:
            raise StateFormatError(
                "predictor-state checksum mismatch: the blob was corrupted "
                "in flight or at rest"
            )
        body = _PREFIX.size + header_size
        if body > len(content):
            raise StateFormatError("predictor-state header overruns the blob")
        try:
            header = json.loads(blob[_PREFIX.size : body].decode("utf-8"))
            if not (
                isinstance(header, dict)
                and isinstance(header.get("class"), str)
                and isinstance(header.get("spec"), (str, type(None)))
                and isinstance(header.get("fields"), dict)
            ):
                raise StateFormatError("predictor-state header lacks class/spec/fields")
            _check_body(header["fields"], len(content) - body)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise StateFormatError(f"undecodable predictor-state header: {exc!r:.200}") from None
        self.predictor_class: str = header["class"]
        self.spec: Optional[str] = header["spec"]
        self._content, self._blob = content, blob
        self._fields: Dict[str, Any] = header["fields"]
        self._body = body

    # -- capture / restore -------------------------------------------------

    @classmethod
    def capture(cls, predictor: BranchPredictor) -> "PredictorState":
        """Snapshot every mutable leaf of ``predictor``: its header, then
        one byte copy of each table (hashed only when first asked)."""
        name = type(predictor).__name__
        arrays: List[array] = []
        fields = _encode_fields(predictor, name, arrays)
        header = json.dumps(
            {"class": name, "spec": predictor.spec, "fields": fields},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        parts = [_PREFIX.pack(STATE_FORMAT, STATE_VERSION, len(header)), header]
        parts.extend(memoryview(values).cast("B") for values in arrays)
        state = cls.__new__(cls)
        state.predictor_class, state.spec = name, predictor.spec
        state._content, state._blob = b"".join(parts), None
        state._fields, state._body = fields, _PREFIX.size + len(header)
        return state

    def restore(self, predictor: BranchPredictor) -> None:
        """Write the snapshot back into ``predictor``, in place.

        Raises :class:`StateMismatchError` when the blob does not fit
        (another class or spec, a changed configuration scalar, table
        geometry or element type, missing or extra attributes, a leaf of
        the wrong type or a value out of its leaf's range) *before*
        touching any predictor state.
        """
        if type(predictor).__name__ != self.predictor_class:
            raise StateMismatchError(
                f"state captured from {self.predictor_class} cannot "
                f"restore into {type(predictor).__name__}"
            )
        if predictor.spec != self.spec:
            raise StateMismatchError(
                f"state captured from spec {self.spec!r} cannot restore "
                f"into spec {predictor.spec!r}"
            )
        body = memoryview(self._content)[self._body :]
        _apply_fields(predictor, self._fields, self.predictor_class, body, False)
        _apply_fields(predictor, self._fields, self.predictor_class, body, True)

    # -- serialization -----------------------------------------------------

    def digest(self) -> str:
        """SHA-256 of the blob's content (its last 32 bytes), as hex."""
        return self.to_bytes()[-_DIGEST_BYTES:].hex()

    def to_bytes(self) -> bytes:
        """The checksummed binary blob."""
        if self._blob is None:
            content = self._content
            self._blob = content + hashlib.sha256(content).digest()
            self._content = memoryview(self._blob)[: len(content)]
        return self._blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "PredictorState":
        """Parse and verify a :meth:`to_bytes` blob.

        Raises:
            StateFormatError: on anything short of a byte-perfect blob
                (see :class:`PredictorState`).
        """
        return cls(data)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictorState):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return NotImplemented if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self.to_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PredictorState {self.predictor_class} {self.spec!r} "
            f"digest={self.digest()[:12]}>"
        )
