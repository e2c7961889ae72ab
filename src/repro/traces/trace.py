"""The branch-trace data type.

A :class:`Trace` is the unit of workload in this library: a sequence of
control-transfer events, each with a program counter, a taken/not-taken
outcome, a conditional/unconditional flag and (optionally) a target
address.  Unconditional events are not predicted but shift global history,
per the paper's methodology.

Storage is numpy-backed for memory efficiency and fast disk round-trips;
the simulation engines iterate over cached Python-int lists
(:meth:`Trace.columns`) because per-element access to numpy arrays from
interpreted loops is several times slower than list access.  The
materialised lists are cached per column and can be dropped with
:meth:`Trace.release_columns` when a long sweep session is done with a
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["BranchRecord", "Trace"]


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic control-transfer event."""

    pc: int
    taken: bool
    conditional: bool = True
    target: int = 0


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
        self.pcs = np.asarray(pcs, dtype=np.uint64)
        self.takens = _flag_column(takens, "takens")
        self.conditionals = _flag_column(conditionals, "conditionals")
        self.targets = (
            np.asarray(targets, dtype=np.uint64)
            if targets is not None
            else np.zeros(length, dtype=np.uint64)
        )
        self.name = name
        self.seed = seed
        #: per-column cache of materialised Python lists; see columns() /
        #: sim_columns().  Keyed per column so the two views share storage.
        self._column_lists: Dict[str, list] = {}
        #: memo of derived numpy columns (see derived_column()); dropped
        #: together with the list cache by release_columns().
        self._derived: Dict[object, "np.ndarray"] = {}

    # -- construction ----------------------------------------------------

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

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, index: int) -> BranchRecord:
        return BranchRecord(
            pc=int(self.pcs[index]),
            taken=bool(self.takens[index]),
            conditional=bool(self.conditionals[index]),
            target=int(self.targets[index]),
        )

    def __iter__(self) -> Iterator[BranchRecord]:
        for i in range(len(self)):
            yield self[i]

    def _column(self, key: str) -> list:
        cached = self._column_lists.get(key)
        if cached is None:
            if key == "pcs":
                cached = self.pcs.tolist()
            elif key == "takens":
                cached = self.takens.tolist()
            elif key == "conditionals":
                cached = self.conditionals.tolist()
            elif key == "targets":
                cached = self.targets.tolist()
            elif key == "takens_bool":
                cached = self.takens.astype(bool).tolist()
            elif key == "conditionals_bool":
                cached = self.conditionals.astype(bool).tolist()
            else:  # pragma: no cover - internal misuse
                raise KeyError(key)
            self._column_lists[key] = cached
        return cached

    def columns(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Hot-loop view: (pcs, takens, conditionals, targets) as int lists.

        Cached after the first call; callers must not mutate the lists.
        """
        return (
            self._column("pcs"),
            self._column("takens"),
            self._column("conditionals"),
            self._column("targets"),
        )

    def sim_columns(self) -> Tuple[List[int], List[bool], List[bool]]:
        """Engine hot-loop view: (pcs, takens, conditionals), outcomes as bools.

        The simulation engine's inner loop tests each event's direction and
        kind once per branch; handing it real booleans removes the
        per-iteration ``taken_int == 1`` comparison.  The pcs list is shared
        with :meth:`columns`.  Cached; callers must not mutate the lists.
        """
        return (
            self._column("pcs"),
            self._column("takens_bool"),
            self._column("conditionals_bool"),
        )

    def derived_column(self, key, compute) -> "np.ndarray":
        """Memoised derived numpy column, computed once per trace.

        The vectorized engines derive per-event streams that depend only
        on the trace (global-history registers, conditional masks,
        word-aligned addresses); sweeping many predictor configurations
        over one trace recomputes them identically every call.  ``key``
        identifies the derivation (e.g. ``("cond_history", bits)``),
        ``compute`` is a zero-argument callable producing the array.
        Cached values are immutable by convention — callers must not
        write to the returned array.
        """
        value = self._derived.get(key)
        if value is None:
            value = compute()
            self._derived[key] = value
        return value

    def release_columns(self) -> None:
        """Drop every materialised column list and derived-column memo.

        The numpy arrays stay; the next :meth:`columns` / :meth:`sim_columns`
        call re-materialises.  Long sweep sessions call this (via
        ``clear_trace_cache``) so memoised traces don't hold both the numpy
        and the Python-list storage alive indefinitely.
        """
        self._column_lists.clear()
        self._derived.clear()

    def head(self, count: int) -> "Trace":
        """A new trace consisting of the first ``count`` events."""
        return Trace(
            self.pcs[:count],
            self.takens[:count],
            self.conditionals[:count],
            self.targets[:count],
            name=f"{self.name}[:{count}]",
            seed=self.seed,
        )

    def slice(self, start: int, stop: int) -> "Trace":
        """A new trace over events ``[start, stop)`` (views, no copies)."""
        return Trace(
            self.pcs[start:stop],
            self.takens[start:stop],
            self.conditionals[start:stop],
            self.targets[start:stop],
            name=f"{self.name}[{start}:{stop}]",
            seed=self.seed,
        )

    def stride_split(self, parts: int) -> List["Trace"]:
        """Deal the trace round-robin into ``parts`` interleaved sessions.

        Session ``i`` gets events ``i, i+parts, i+2*parts, ...`` — the
        load generator's model of many clients each replaying a coherent
        sub-stream of one workload.  Each part keeps the branch-locality
        structure of the original (same PCs, same outcome correlations at
        ``parts``-fold dilution), so per-tenant predictor behaviour stays
        realistic rather than random.
        """
        if parts <= 0:
            raise ValueError(f"parts must be >= 1, got {parts}")
        return [
            Trace(
                self.pcs[i::parts],
                self.takens[i::parts],
                self.conditionals[i::parts],
                self.targets[i::parts],
                name=f"{self.name}%{parts}[{i}]",
                seed=self.seed,
            )
            for i in range(parts)
        ]

    # -- summary -----------------------------------------------------------

    @property
    def conditional_count(self) -> int:
        """Dynamic conditional-branch count (the Table 1 'dynamic' column)."""
        return int(self.conditionals.sum())

    @property
    def static_conditional_count(self) -> int:
        """Distinct conditional-branch PCs (the Table 1 'static' column)."""
        mask = self.conditionals.astype(bool)
        return len(np.unique(self.pcs[mask]))

    @property
    def taken_ratio(self) -> float:
        """Fraction of conditional branches that were taken."""
        mask = self.conditionals.astype(bool)
        total = int(mask.sum())
        if total == 0:
            return 0.0
        return float(self.takens[mask].sum()) / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, events={len(self)}, "
            f"conditional={self.conditional_count})"
        )
