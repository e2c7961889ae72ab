"""The branch-trace data type.

A :class:`Trace` is the unit of workload in this library: a sequence of
control-transfer events, each with a program counter, a taken/not-taken
outcome, a conditional/unconditional flag and (optionally) a target
address.  Unconditional events are not predicted but shift global history,
per the paper's methodology.

Storage is one representation: a contiguous-or-strided ``uint32`` *code*
per event (:attr:`Trace.codes`) into a small table of the trace's
distinct static events (:attr:`Trace.table`: ``pc`` and ``target`` as
uint64, ``taken`` and ``conditional`` as uint8).  A program has a few
thousand distinct ``(pc, taken, conditional, target)`` rows however long
it runs, so a trace costs 4 bytes per event plus its table — against 18
bytes per event for four raw columns.  The constructor takes raw columns
and factorises them (:func:`_factorise`); the synthetic generator and the
binary format hand over codes and a table directly
(:meth:`Trace.from_table`).  :meth:`Trace.head`, :meth:`Trace.slice` and
:meth:`Trace.stride_split` are views of the codes that share the table.

Raw columns are built only on demand and never kept: :attr:`Trace.pcs`,
:attr:`~Trace.takens`, :attr:`~Trace.conditionals` and
:attr:`~Trace.targets` each gather a fresh read-only array per access
(the aliasing measurements, the Python counter walk and the comparisons
in tests read them).  Length, indexing and the Table 1 summaries read
the codes and the table and build no column.  The C counter walk reads
the codes and the table rows itself.  The per-event Python loops (the
generic interpreter, the per-event trace statistics and the
interference classifier) iterate :meth:`Trace.sim_events`, which maps
the codes, one chunk at a time, through a list of the table's rows: it
keeps nothing on the trace and holds one chunk and the table at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["BranchRecord", "EventTable", "Trace"]

#: Events per chunk when gathering a column, counting rows or iterating
#: events: numpy casts a uint32 index array to intp before indexing, and
#: a strided view's codes are copied to be read through a memoryview, so
#: chunking bounds those transients to 512 KB whatever the trace length.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic control-transfer event."""

    pc: int
    taken: bool
    conditional: bool = True
    target: int = 0


class EventTable(NamedTuple):
    """A trace's static events: one row per distinct event, four columns
    of equal length, each read-only."""

    pcs: np.ndarray  # uint64
    takens: np.ndarray  # uint8, 0 or 1
    conditionals: np.ndarray  # uint8, 0 or 1
    targets: np.ndarray  # uint64


def _flag_column(values, label: str) -> "np.ndarray":
    """``values`` as a uint8 column; any value but 0 or 1 is a ValueError.

    The engines read any other value differently from one another (and a
    plain uint8 cast would wrap 256 to 0), so none may enter a trace.
    """
    flags = np.asarray(values)
    bad = (flags != 0) & (flags != 1)
    if bad.any():
        index = int(np.argmax(bad))
        raise ValueError(
            f"trace {label}[{index}] is {flags[index].item()}; must be 0 or 1"
        )
    return flags.astype(np.uint8, copy=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's array stays as it was)."""
    view = array.view()
    view.flags.writeable = False
    return view


def _ids(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """The distinct ``values``, each value's id among them, and the bits
    an id needs."""
    distinct, ids = np.unique(values, return_inverse=True)
    return distinct, ids.astype(np.uint64), (len(distinct) - 1).bit_length()


def _factorise(
    pcs: np.ndarray, takens: np.ndarray, conditionals: np.ndarray,
    targets: Optional[np.ndarray],
) -> Tuple[np.ndarray, EventTable]:
    """Codes and a table of distinct rows for raw columns.

    Each event packs into one uint64 key — its pc (or, when the pcs and
    targets are too wide to share 64 bits, its pc's id among the
    distinct pcs), its target's id, then its taken and conditional bits
    — so one ``np.unique`` over the keys finds the rows (a structured
    ``np.unique`` over the four fields is ~40x slower).  All-zero
    targets, the common case, need no id.  The table comes out sorted by
    key.
    """
    if len(pcs) == 0:
        empty = np.zeros(0, np.uint64)
        flags = np.zeros(0, np.uint8)
        return np.zeros(0, np.uint32), EventTable(empty, flags, flags, empty)
    if targets is None or not targets.any():
        target_values, target_ids, target_bits = None, None, 0
    else:
        target_values, target_ids, target_bits = _ids(targets)
    pc_values = None
    pc_bits = int(pcs.max()).bit_length()
    if pc_bits + target_bits + 2 > 64:
        pc_values, pcs, pc_bits = _ids(pcs)
    if pc_bits + target_bits + 2 > 64:  # pragma: no cover — > 2**31 sites
        raise ValueError("trace has too many distinct pcs and targets to encode")
    pc_shift = np.uint64(target_bits + 2)
    keys = pcs << pc_shift
    if target_ids is not None:
        keys |= target_ids << np.uint64(2)
    keys |= (takens << 1) | conditionals
    rows, codes = np.unique(keys, return_inverse=True)
    if len(rows) > 1 << 32:  # pragma: no cover — codes are uint32
        raise ValueError("trace has too many distinct events to encode")
    row_pcs = rows >> pc_shift
    flags = (rows & np.uint64(3)).astype(np.uint8)
    if target_ids is None:
        row_targets = np.zeros(len(rows), np.uint64)
    else:
        target_mask = np.uint64((1 << target_bits) - 1)
        row_targets = target_values[(rows >> np.uint64(2)) & target_mask]
    table = EventTable(
        row_pcs if pc_values is None else pc_values[row_pcs],
        flags >> 1,
        flags & 1,
        row_targets,
    )
    return codes.astype(np.uint32), table


class Trace:
    """An immutable sequence of branch events plus workload metadata."""

    def __init__(
        self,
        pcs: "np.ndarray",
        takens: "np.ndarray",
        conditionals: "np.ndarray",
        targets: Optional["np.ndarray"] = None,
        name: str = "anonymous",
        seed: Optional[int] = None,
    ):
        length = len(pcs)
        if len(takens) != length or len(conditionals) != length:
            raise ValueError("trace column lengths disagree")
        if targets is not None and len(targets) != length:
            raise ValueError("trace column lengths disagree")
        codes, table = _factorise(
            np.asarray(pcs, dtype=np.uint64),
            _flag_column(takens, "takens"),
            _flag_column(conditionals, "conditionals"),
            None if targets is None else np.asarray(targets, dtype=np.uint64),
        )
        self._set(codes, EventTable(*map(_read_only, table)), name, seed)

    def _set(
        self, codes: np.ndarray, table: EventTable, name: str,
        seed: Optional[int],
    ) -> None:
        self._codes = _read_only(codes)
        self._table = table
        self.name = name
        self.seed = seed
        #: Events per table row: the Table 1 summaries read it, so none
        #: of them walks the codes again.
        self._row_counts = _row_counts(self._codes, len(table.pcs))
        #: Every walk reads the conditional count; it is one dot product.
        self._conditional_count = int(self._row_counts @ table.conditionals)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_table(
        cls,
        codes: "np.ndarray",
        pcs: "np.ndarray",
        takens: "np.ndarray",
        conditionals: "np.ndarray",
        targets: "np.ndarray",
        name: str = "anonymous",
        seed: Optional[int] = None,
    ) -> "Trace":
        """A trace whose event ``i`` is row ``codes[i]`` of the table
        ``(pcs, takens, conditionals, targets)``.

        The table may hold rows no code names, and repeated rows.

        Raises:
            ValueError: on table columns of unequal length, a code at or
                past the row count, or a flag other than 0 or 1.
        """
        codes = np.asarray(codes)
        if codes.dtype != np.uint32 or codes.ndim != 1:
            raise ValueError(f"trace codes must be 1-D uint32, not {codes.dtype}")
        rows = len(pcs)
        if not len(takens) == len(conditionals) == len(targets) == rows:
            raise ValueError("trace table column lengths disagree")
        if len(codes) and int(codes.max()) >= rows:
            raise ValueError(
                f"trace code {int(codes.max())} is past the table's {rows} rows"
            )
        table = EventTable(
            np.asarray(pcs, dtype=np.uint64),
            _flag_column(takens, "takens"),
            _flag_column(conditionals, "conditionals"),
            np.asarray(targets, dtype=np.uint64),
        )
        trace = cls.__new__(cls)
        trace._set(codes, EventTable(*map(_read_only, table)), name, seed)
        return trace

    def _view(self, codes: np.ndarray, name: str) -> "Trace":
        """A trace over a view of this one's codes, sharing its table."""
        trace = Trace.__new__(Trace)
        trace._set(codes, self._table, name, self.seed)
        return trace

    @classmethod
    def from_records(
        cls,
        records: Iterable[BranchRecord],
        name: str = "anonymous",
        seed: Optional[int] = None,
    ) -> "Trace":
        pcs: List[int] = []
        takens: List[int] = []
        conditionals: List[int] = []
        targets: List[int] = []
        for record in records:
            pcs.append(record.pc)
            takens.append(1 if record.taken else 0)
            conditionals.append(1 if record.conditional else 0)
            targets.append(record.target)
        return cls(
            np.array(pcs, dtype=np.uint64),
            np.array(takens, dtype=np.uint8),
            np.array(conditionals, dtype=np.uint8),
            np.array(targets, dtype=np.uint64),
            name=name,
            seed=seed,
        )

    @classmethod
    def from_columns(
        cls,
        pcs: List[int],
        takens: List[int],
        conditionals: List[int],
        targets: Optional[List[int]] = None,
        name: str = "anonymous",
        seed: Optional[int] = None,
    ) -> "Trace":
        return cls(
            np.array(pcs, dtype=np.uint64),
            np.array(takens, dtype=np.uint8),
            np.array(conditionals, dtype=np.uint8),
            np.array(targets, dtype=np.uint64) if targets is not None else None,
            name=name,
            seed=seed,
        )

    # -- the representation --------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """Each event's row in :attr:`table` (read-only uint32; a strided
        view for ``slice`` / ``head`` / ``stride_split`` traces)."""
        return self._codes

    @property
    def table(self) -> EventTable:
        """The static events the codes index (read-only columns)."""
        return self._table

    def _gather(self, row_column: np.ndarray) -> np.ndarray:
        """The per-event column of one table column, read-only."""
        codes = self._codes
        out = np.empty(len(codes), dtype=row_column.dtype)
        for start in range(0, len(codes), _CHUNK):
            np.take(
                row_column, codes[start : start + _CHUNK],
                out=out[start : start + _CHUNK],
            )
        out.flags.writeable = False
        return out

    @property
    def pcs(self) -> np.ndarray:
        """Every event's pc (uint64), built on each access."""
        return self._gather(self._table.pcs)

    @property
    def takens(self) -> np.ndarray:
        """Every event's outcome (uint8), built on each access."""
        return self._gather(self._table.takens)

    @property
    def conditionals(self) -> np.ndarray:
        """Every event's conditional flag (uint8), built on each access."""
        return self._gather(self._table.conditionals)

    @property
    def targets(self) -> np.ndarray:
        """Every event's target (uint64), built on each access."""
        return self._gather(self._table.targets)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index: int) -> BranchRecord:
        return self._record(int(self._codes[index]))

    def _record(self, row: int) -> BranchRecord:
        table = self._table
        return BranchRecord(
            pc=int(table.pcs[row]),
            taken=bool(table.takens[row]),
            conditional=bool(table.conditionals[row]),
            target=int(table.targets[row]),
        )

    def __iter__(self) -> Iterator[BranchRecord]:
        records = [self._record(row) for row in range(len(self._table.pcs))]
        for code in self._codes.tolist():
            yield records[code]

    def sim_events(self) -> Iterator[Tuple[int, bool, bool]]:
        """Every event's ``(pc, taken, conditional)``, flags as bools.

        The per-event Python loops' view: each chunk of codes is read
        through a memoryview (Python ints, made one at a time) and mapped
        through one tuple per table row, so the iteration holds the row
        list and one chunk of codes (a view, or a copy of a strided
        view's) whatever the trace length, and caches nothing.
        """
        table = self._table
        rows = list(zip(
            table.pcs.tolist(),
            table.takens.astype(bool).tolist(),
            table.conditionals.astype(bool).tolist(),
        ))
        codes = self._codes
        return chain.from_iterable(
            map(
                rows.__getitem__,
                memoryview(np.ascontiguousarray(codes[start : start + _CHUNK])),
            )
            for start in range(0, len(codes), _CHUNK)
        )

    def head(self, count: int) -> "Trace":
        """A new trace consisting of the first ``count`` events (a view
        of the codes, sharing the table).

        Raises:
            ValueError: if ``count`` is negative.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self._view(self._codes[:count], f"{self.name}[:{count}]")

    def slice(self, start: int, stop: int) -> "Trace":
        """A new trace over events ``[start, stop)`` (a view of the codes,
        sharing the table)."""
        return self._view(self._codes[start:stop], f"{self.name}[{start}:{stop}]")

    def stride_split(self, parts: int) -> List["Trace"]:
        """Deal the trace round-robin into ``parts`` interleaved sessions.

        Session ``i`` gets events ``i, i+parts, i+2*parts, ...`` — the
        load generator's model of many clients each replaying a coherent
        sub-stream of one workload.  Each part keeps the branch-locality
        structure of the original (same PCs, same outcome correlations at
        ``parts``-fold dilution), so per-tenant predictor behaviour stays
        realistic rather than random.  Each part is a strided view of the
        codes, sharing the table.
        """
        if parts <= 0:
            raise ValueError(f"parts must be >= 1, got {parts}")
        return [
            self._view(self._codes[i::parts], f"{self.name}%{parts}[{i}]")
            for i in range(parts)
        ]

    # -- summary -----------------------------------------------------------

    @property
    def conditional_count(self) -> int:
        """Dynamic conditional-branch count (the Table 1 'dynamic' column)."""
        return self._conditional_count

    @property
    def static_conditional_count(self) -> int:
        """Distinct conditional-branch PCs (the Table 1 'static' column)."""
        table = self._table
        used = (self._row_counts > 0) & (table.conditionals != 0)
        return len(np.unique(table.pcs[used]))

    @property
    def taken_ratio(self) -> float:
        """Fraction of conditional branches that were taken."""
        total = self.conditional_count
        if total == 0:
            return 0.0
        table = self._table
        taken = int(self._row_counts @ (table.conditionals & table.takens))
        return taken / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, events={len(self)}, "
            f"conditional={self.conditional_count})"
        )


def _row_counts(codes: np.ndarray, rows: int) -> np.ndarray:
    """How many events name each of ``rows`` table rows."""
    if len(codes) <= _CHUNK:
        return np.bincount(codes, minlength=rows)
    counts = np.zeros(rows, dtype=np.int64)
    for start in range(0, len(codes), _CHUNK):
        counts += np.bincount(codes[start : start + _CHUNK], minlength=rows)
    return counts
