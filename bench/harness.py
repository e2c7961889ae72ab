"""Shared benchmark plumbing: seeded inputs, timing, tracing, outcomes.

Everything here runs in the benchmark's own processes and reaches the
program under test only through its public functions.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.traces import generate_trace_cached
from repro.traces.synthetic.workloads import (
    IBS_BENCHMARKS,
    clear_trace_cache,
    ibs_trace,
    ibs_workload,
)

#: Trace-length multiplier per workload.  Sized so that a 10 s run on a
#: 2-CPU host holds at least four passes of the workload's fixed unit of
#: work, giving each part of a pass several samples to take the fast end
#: of (see ``FAST``).
SCALES: Dict[str, float] = {
    "sweep": 0.25,
    "model": 0.08,
    "trace_sim": 2.0,
    "serve": 1.0,
    "serve_state": 0.25,
}

#: Trace scale of ``--smoke`` runs: big enough for every code path.
SMOKE_SCALE = 0.02

#: Sweep worker processes; the program may use at most two.
JOBS = 2


def scale_for(workload: str, smoke: bool) -> float:
    return SMOKE_SCALE if smoke else SCALES[workload]


def workload_configs(workload: str, seed: int, smoke: bool = False) -> list:
    """The six IBS clone configs, their seeds offset by ``seed``.

    Seed 0 is the unchanged clone table, so its traces are exactly
    ``ibs_trace(name, scale)``.
    """
    scale = scale_for(workload, smoke)
    configs = []
    for name in IBS_BENCHMARKS:
        config = ibs_workload(name)
        if seed:
            config = dataclasses.replace(config, seed=config.seed + seed)
        if scale != 1.0:
            config = config.scaled(scale)
        configs.append(config)
    return configs


def load_traces(workload: str, seed: int, smoke: bool = False) -> list:
    """Generate (or load from ``REPRO_TRACE_CACHE``) the workload's traces."""
    return [generate_trace_cached(c) for c in workload_configs(workload, seed, smoke)]


def check_canonical(workload: str, traces: list, smoke: bool = False) -> List[str]:
    """Names of the seed-0 traces that differ from the package's ``ibs_trace``."""
    scale = scale_for(workload, smoke)
    differ = []
    for name, trace in zip(IBS_BENCHMARKS, traces):
        reference = ibs_trace(name, scale)
        columns = ("pcs", "takens", "conditionals")
        if not all(np.array_equal(getattr(trace, c), getattr(reference, c)) for c in columns):
            differ.append(name)
    clear_trace_cache()
    return differ


def digest(value: Any) -> str:
    """Short SHA-256 of a JSON-serialisable value (the pin format)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


#: Pass timings take this nearest-rank quantile of a run's samples of one
#: part of the work (the fastest of fewer than ten).  On a shared host the
#: CPU speed a process sees drops 1.2-1.7x for seconds at a time, so the
#: fast end of a run measures the code while its median moves whenever a
#: slow spell covers half the run.
FAST = 0.1


def fast(seconds: List[float]) -> float:
    """The fast end (``FAST`` quantile) of one part's timings in a run."""
    return percentile(seconds, FAST)


def fast_rate(rates: List[float]) -> float:
    """The fast end of a run's rates: their ``1 - FAST`` quantile."""
    return percentile(rates, 1.0 - FAST)


def tail(samples: List[float]) -> Dict[str, float]:
    """Median plus the highest of p90/p99 with ten samples beyond it."""
    summary = {"p50": percentile(samples, 0.5), "n": len(samples)}
    for name, fraction in (("p99", 0.99), ("p90", 0.90)):
        if len(samples) * (1.0 - fraction) >= 10:
            summary[name] = percentile(samples, fraction)
            break
    return summary


def repeat_for(seconds: float, unit: Callable[[], Any]) -> list:
    """Run ``unit`` back to back for about ``seconds``; return its values.

    Always runs it once; after that, starts another only if the mean
    so far predicts it ends less than half a run past the budget.
    """
    values = []
    started = time.perf_counter()
    while True:
        values.append(unit())
        spent = time.perf_counter() - started
        if spent + spent / len(values) / 2 > seconds:
            return values


@dataclasses.dataclass
class Outcome:
    """What one measured run of a workload produced."""

    #: operations issued and operations that failed or mismatched
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: end-to-end metric name -> value (see ``run.END_TO_END``)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: ungated report: name -> (value, unit)
    detail: Dict[str, tuple] = dataclasses.field(default_factory=dict)
    #: per-layer metric name -> value (traced runs)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: seed-0 correctness pins: name -> digest
    pins: Dict[str, str] = dataclasses.field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)


@dataclasses.dataclass
class Call:
    """One traced call, handed to a wrapper's ``observe`` hook."""

    result: Any
    elapsed: float
    self_elapsed: float
    parent: Optional[str]


class Tracer:
    """Wall-clock spans around calls into the program's layers.

    ``span`` times a block; ``wrap`` replaces a function at the name its
    callers bind with a timed wrapper.  Spans nest: a span's self time is
    its duration minus its child spans.  ``restore`` undoes every wrap.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, label: str):
        frame = [label, 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            yield frame
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            frame.append(elapsed)
            self.total[label] = self.total.get(label, 0.0) + elapsed
            self.own[label] = self.own.get(label, 0.0) + elapsed - frame[1]
            self.calls[label] = self.calls.get(label, 0) + 1
            if self._stack:
                self._stack[-1][1] += elapsed

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def parent(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def wrap(
        self,
        owner: Any,
        attr: str,
        label: Any,
        observe: Optional[Callable[["Tracer", Call], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr``; nothing when it does not exist.

        ``label`` is a span name or a function of the call's arguments.
        ``observe`` sees each finished :class:`Call`.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            parent = self.parent()
            with self.span(name) as frame:
                result = original(*args, **kwargs)
            if observe is not None:
                observe(
                    self,
                    Call(result, frame[2], frame[2] - frame[1], parent),
                )
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {"total": self.total, "own": self.own, "calls": self.calls, "counters": self.counters}

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        tracer = cls()
        for key in ("total", "own", "calls", "counters"):
            getattr(tracer, key).update(data[key])
        return tracer

    def mean(self, label: str, own: bool = False) -> float:
        """Mean seconds per call of ``label`` (0 when never called)."""
        calls = self.calls.get(label, 0)
        table = self.own if own else self.total
        return table.get(label, 0.0) / calls if calls else 0.0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def fast_pass(parts: List[Dict[str, float]]) -> float:
    """Seconds of an unhindered pass: each part's ``fast`` time, summed.

    ``parts`` holds one ``part -> seconds`` dict per pass.  Taking each
    part at its own fast end lets a pass be assembled from moments when
    the host was not slowing it.
    """
    return sum(fast([p[key] for p in parts]) for key in parts[0])
