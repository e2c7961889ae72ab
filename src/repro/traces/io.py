"""Trace serialisation: a compact binary format and a debug text format.

The binary format (``.npz``-based) is what the trace cache uses to keep
generated workloads between runs.  Format 2, the one written, stores a
trace as it is held in memory: the ``uint32`` code stream (4 bytes per
event) and the table of static events it indexes.  Format 1 stored four
per-event columns (18 bytes per event); :func:`load_trace` still reads
it, and factorises the columns into codes and a table on load, so
format-1 files and older cache entries load bit-identically.

The text format is line-oriented (one event per line: ``pc taken
conditional target`` in hex/ints) for inspection and for importing
externally-captured traces.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.traces.trace import Trace

__all__ = [
    "save_trace",
    "load_trace",
    "save_trace_text",
    "load_trace_text",
]

#: The format :func:`save_trace` writes: codes plus table.
_FORMAT_VERSION = 2

#: The table's members in format 2, in ``Trace.from_table`` order after
#: the codes.  Format 1's per-event columns were named without the prefix.
_TABLE_MEMBERS = (
    "table_pcs", "table_takens", "table_conditionals", "table_targets",
)
_COLUMN_MEMBERS = ("pcs", "takens", "conditionals", "targets")

#: The text format's fields in line order: (name, exclusive upper bound,
#: what a valid value is).  Addresses are unsigned 64-bit, outcomes bits.
_ADDRESS = (1 << 64, "an integer in [0, 2**64)")
_BIT = (2, "0 or 1")
_TEXT_FIELDS = (
    ("pc", *_ADDRESS),
    ("taken", *_BIT),
    ("conditional", *_BIT),
    ("target", *_ADDRESS),
)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` in the compact binary format (format 2).

    The file is what ``np.savez_compressed`` writes — one ``.npy`` member
    per array (the codes, the four table columns and the metadata) in a
    deflated zip, ``.npz`` appended to a path without it — at zlib level
    1 instead of 6: the trace cache writes one per generated trace, and
    the faster level costs ~1.7x the bytes.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    metadata = {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "seed": trace.seed,
    }
    members = {
        "codes": trace.codes,
        **dict(zip(_TABLE_MEMBERS, trace.table)),
        "metadata": np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
    }
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for name, array in members.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`, in format 2 or 1."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        # numpy appends .npz when saving without the extension.
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        version = metadata.get("version")
        name = metadata.get("name", "anonymous")
        seed = metadata.get("seed")
        if version == _FORMAT_VERSION:
            return Trace.from_table(
                data["codes"], *(data[m] for m in _TABLE_MEMBERS),
                name=name, seed=seed,
            )
        if version == 1:
            return Trace(*(data[m] for m in _COLUMN_MEMBERS), name=name, seed=seed)
        raise ValueError(f"unsupported trace format version {version!r}")


def save_trace_text(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` as one ``pc taken cond target`` line per event."""
    path = Path(path)
    table = trace.table
    lines = [
        f"{pc:#x} {taken} {conditional} {target:#x}\n"
        for pc, taken, conditional, target in zip(*(c.tolist() for c in table))
    ]
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# trace {trace.name} seed={trace.seed}\n")
        handle.writelines(map(lines.__getitem__, trace.codes.tolist()))


def load_trace_text(path: Union[str, Path]) -> Trace:
    """Read the text format written by :func:`save_trace_text`."""
    path = Path(path)
    columns = pcs, takens, conditionals, targets = [], [], [], []
    name = path.stem
    seed = None
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                # Header comment: "# trace <name> seed=<seed>"; the name
                # may hold spaces, so the seed is the last token.
                header = line[1:].strip()
                if header.startswith("trace "):
                    name = header[len("trace ") :]
                    rest, _, last = name.rpartition(" ")
                    if last.startswith("seed="):
                        name = rest
                        if last[5:] != "None":
                            seed = int(last[5:])
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(
                    f"{path}:{line_number}: expected 4 fields, got "
                    f"{len(fields)}"
                )
            for text, column, (label, limit, expected) in zip(
                fields, columns, _TEXT_FIELDS
            ):
                try:
                    value = int(text, 0)
                except ValueError:
                    value = None
                if value is None or not 0 <= value < limit:
                    raise ValueError(
                        f"{path}:{line_number}: {label} must be {expected}, "
                        f"got {text!r}"
                    )
                column.append(value)
    return Trace.from_columns(
        pcs, takens, conditionals, targets, name=name, seed=seed
    )
