"""Deterministic fault injection, keyed off the ``REPRO_FAULTS`` env var.

A *fault plan* names pipeline sites and the arrival numbers at which
they should fail.  Sites are checked with :func:`fault_active` (count
the arrival, report whether it fires) or :func:`maybe_fail` (raise
:class:`InjectedFault` when it fires); with ``REPRO_FAULTS`` unset every
check is a cheap no-op, so production runs pay nothing.

Grammar (comma-separated clauses)::

    REPRO_FAULTS = clause ("," clause)*
    clause       = site "@" window
    window       = N          fire on the Nth arrival only
                 | N-M        fire on arrivals N through M (inclusive)
                 | N-         fire on every arrival from N onward
                 | *          fire on every arrival

    REPRO_FAULTS="worker-crash@1"                first dispatched chunk dies
    REPRO_FAULTS="worker-crash@1-"               every dispatch dies (forces
                                                 the serial last resort)
    REPRO_FAULTS="kernel-native@1,cache-read@2"  two independent sites

Arrivals are counted per site, per process, in program order, which is
what makes a plan deterministic: the same plan over the same workload
fires at the same points every run.  The injectable sites:

=====================  ====================================================
``worker-crash``       counted per *chunk dispatch* in the parent of
                       :func:`repro.sim.parallel.run_cells`; the worker
                       raises :class:`InjectedFault` instead of simulating
``worker-hang``        same dispatch counter family; the worker sleeps past
                       the per-cell timeout instead of simulating
``cache-read``         counted per existing-entry read in
                       :func:`repro.traces.cache.generate_trace_cached`;
                       the entry is treated as unreadable
``cache-write``        counted per entry store; the bytes are corrupted
                       before publication (read-side detection must catch
                       it on the next load)
``kernel-native``      counted per native-C-engine dispatch in
                       :func:`repro.sim.vectorized.simulate_fast`; the
                       engine raises before touching predictor state
``kernel-vectorized``  likewise for the vectorized loop engine
``serving-shard``      counted per tenant micro-batch flush in
                       :meth:`repro.serving.shard.Shard.flush_tenant`; the
                       flush dies after the engine ran but *before* the
                       batch commits, is rolled back to its pre-batch
                       :class:`~repro.sim.state.PredictorState` snapshot
                       and replayed — byte-identical to fault-free
=====================  ====================================================

The active plan is re-read from the environment whenever the variable's
raw value changes (tests simply monkeypatch the variable); arrival
counters reset on every re-parse and via :func:`reset_faults`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.util import envvars

__all__ = [
    "FAULTS_ENV_VAR",
    "SITES",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "fault_active",
    "maybe_fail",
    "reset_faults",
]

#: Environment variable holding the fault plan (empty/unset: no faults);
#: declared in the central registry (:mod:`repro.util.envvars`).
FAULTS_ENV_VAR = envvars.FAULTS.name

#: Every injectable site (see the module docstring for semantics).
SITES = frozenset(
    {
        "worker-crash",
        "worker-hang",
        "cache-read",
        "cache-write",
        "kernel-native",
        "kernel-vectorized",
        "serving-shard",
    }
)

#: A window of arrival numbers: (first, last); ``last=None`` means open.
_Window = Tuple[int, Optional[int]]


class InjectedFault(RuntimeError):
    """Raised at a fault site the active plan says should fail."""

    def __init__(self, site: str):
        super().__init__(site)
        self.site = site


def _parse_window(text: str, clause: str) -> _Window:
    text = text.strip()
    if text == "*":
        return (1, None)
    if "-" in text:
        first_text, last_text = text.split("-", 1)
        first = int(first_text)
        last = None if last_text.strip() == "" else int(last_text)
    else:
        first = last = int(text)
    if first < 1 or (last is not None and last < first):
        raise ValueError(f"bad fault window in {clause!r}")
    return (first, last)


class FaultPlan:
    """Per-site arrival windows plus per-site arrival counters."""

    def __init__(
        self, windows: Optional[Mapping[str, Sequence[_Window]]] = None
    ):
        self._windows: Dict[str, List[_Window]] = {
            site: list(site_windows)
            for site, site_windows in (windows or {}).items()
        }
        unknown = sorted(set(self._windows) - SITES)
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(SITES))}"
            )
        self._arrivals: Dict[str, int] = {}

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (module docstring).

        Raises ``ValueError`` on malformed clauses or unknown sites, so
        a typo in the variable fails loudly instead of silently testing
        nothing.
        """
        windows: Dict[str, List[_Window]] = {}
        for clause in text.split(","):
            clause = clause.strip()
            if not clause:
                continue
            if "@" not in clause:
                raise ValueError(
                    f"bad fault clause {clause!r}; expected site@window"
                )
            site, _, window_text = clause.partition("@")
            site = site.strip()
            try:
                window = _parse_window(window_text, clause)
            except ValueError as exc:
                raise ValueError(str(exc)) from None
            windows.setdefault(site, []).append(window)
        return cls(windows)

    @property
    def empty(self) -> bool:
        return not self._windows

    def arrivals(self, site: str) -> int:
        """Arrivals counted at ``site`` so far (testing/diagnostics)."""
        return self._arrivals.get(site, 0)

    def should_fire(self, site: str) -> bool:
        """Count one arrival at ``site``; report whether it fires."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}")
        windows = self._windows.get(site)
        if not windows:
            return False
        arrival = self._arrivals.get(site, 0) + 1
        self._arrivals[site] = arrival
        return any(
            first <= arrival and (last is None or arrival <= last)
            for first, last in windows
        )


#: (raw env value, parsed plan) of the most recent :func:`active_plan`.
_ACTIVE: Optional[Tuple[str, FaultPlan]] = None


def active_plan() -> FaultPlan:
    """The plan for the current ``REPRO_FAULTS`` value.

    Re-parsed (with fresh arrival counters) whenever the raw variable
    changes; cached otherwise, so repeated site checks are one dict
    lookup plus a string compare.
    """
    global _ACTIVE
    raw = envvars.FAULTS.raw() or ""
    if _ACTIVE is None or _ACTIVE[0] != raw:
        _ACTIVE = (raw, FaultPlan.parse(raw))
    return _ACTIVE[1]


def fault_active(site: str) -> bool:
    """Count an arrival at ``site`` under the active plan; True = fail."""
    plan = active_plan()
    if plan.empty:
        return False
    return plan.should_fire(site)


def maybe_fail(site: str) -> None:
    """Raise :class:`InjectedFault` when the active plan fires ``site``."""
    if fault_active(site):
        raise InjectedFault(site)


def reset_faults() -> None:
    """Drop the cached plan so the next check re-parses the environment.

    Tests use this to zero arrival counters between cases that reuse
    the same ``REPRO_FAULTS`` value.
    """
    global _ACTIVE
    _ACTIVE = None
