"""Trace serialisation: a compact binary format and a debug text format.

The binary format (``.npz``-based) is what the benchmark harness uses to
cache generated workloads between runs; the text format is line-oriented
(one event per line: ``pc taken conditional target`` in hex/ints) for
inspection and for importing externally-captured traces.
"""

from __future__ import annotations

import json
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

_FORMAT_VERSION = 1

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
    """Write ``trace`` to ``path`` in the compact binary format."""
    path = Path(path)
    metadata = {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "seed": trace.seed,
    }
    np.savez_compressed(
        path,
        pcs=trace.pcs,
        takens=trace.takens,
        conditionals=trace.conditionals,
        targets=trace.targets,
        metadata=np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
    )


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        # numpy appends .npz when saving without the extension.
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        if metadata.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {metadata.get('version')!r}"
            )
        return Trace(
            data["pcs"],
            data["takens"],
            data["conditionals"],
            data["targets"],
            name=metadata.get("name", "anonymous"),
            seed=metadata.get("seed"),
        )


def save_trace_text(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` as one ``pc taken cond target`` line per event."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# trace {trace.name} seed={trace.seed}\n")
        pcs, takens, conditionals, targets = trace.columns()
        for pc, taken, conditional, target in zip(
            pcs, takens, conditionals, targets
        ):
            handle.write(f"{pc:#x} {taken} {conditional} {target:#x}\n")


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
                # Header comment: "# trace <name> seed=<seed>"
                parts = line[1:].split()
                if len(parts) >= 2 and parts[0] == "trace":
                    name = parts[1]
                    for part in parts[2:]:
                        if part.startswith("seed=") and part[5:] != "None":
                            seed = int(part[5:])
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
