"""Per-tenant predictor state, micro-batched.

The serving data model: a **tenant** (client session) owns one live
predictor; the server's one **shard** owns every tenant, in open order,
plus their pending event buffers.  Tenants are isolated by owning their
own tables, so one table of tenants serves them all.  Events arrive as
packed frames that :func:`repro.serving.protocol.decode_request`
decodes into numpy columns, and no Python runs per event: a request's
columns are one chunk of its tenant's pending buffer, and the buffer is
flushed as a micro-batch :class:`~repro.traces.trace.Trace` through
:func:`repro.sim.vectorized.simulate_fast`, which dispatches the
native tier (the vectorized loop without a compiler).  Because every
fast tier honors warm predictor state (counters, bias latches, and the
history-register seed), the flush boundaries are invisible: any
batching whatsoever produces predictions and final state byte-identical
to one serial run.

Crash safety: each flush snapshots the tenant's
:class:`~repro.sim.state.PredictorState` first (the only snapshot a
flush takes: ``simulate_fast`` keeps none of its own), runs the engine,
then passes the ``serving-shard`` fault site *before committing*.  An
injected mid-batch crash rolls the predictor back to the snapshot and
replays the same batch — deterministic, and proven byte-identical to
the fault-free run by the resilience suite; any other engine error
rolls back, keeps the batch pending and propagates.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.resilience.faults import InjectedFault, maybe_fail
from repro.serving.protocol import EventColumns
from repro.sim.config import make_predictor
from repro.sim.state import PredictorState
from repro.sim.vectorized import simulate_fast
from repro.traces.trace import Trace
from repro.util import envvars

__all__ = [
    "RETRY_LIMIT",
    "Tenant",
    "Shard",
    "default_batch_size",
]

#: Documented default micro-batch size (see ``REPRO_SERVING_BATCH``).
DEFAULT_BATCH = 256

#: Replays of a batch whose flush died at the ``serving-shard`` fault
#: gate before the fault propagates.
RETRY_LIMIT = 2


def default_batch_size() -> int:
    """The flush threshold, from ``REPRO_SERVING_BATCH`` (min 1)."""
    value = envvars.SERVING_BATCH.int_value(DEFAULT_BATCH) or DEFAULT_BATCH
    return max(1, value)


class Tenant:
    """One client session: a live predictor plus its pending events."""

    __slots__ = (
        "session",
        "spec",
        "predictor",
        "chunks",
        "pending",
        "conditional_branches",
        "mispredictions",
        "batches",
        "events",
    )

    def __init__(self, session: str, spec: str):
        self.session = session
        self.spec = spec
        self.predictor: BranchPredictor = make_predictor(spec)
        #: Pending events, one chunk of columns per request, in order.
        self.chunks: List[EventColumns] = []
        self.pending = 0
        self.conditional_branches = 0
        self.mispredictions = 0
        self.batches = 0
        self.events = 0

    def append(self, events: EventColumns) -> None:
        """Buffer one request's events."""
        count = len(events.pcs)
        if count:
            self.chunks.append(events)
            self.pending += count
            self.events += count

    def drain(self) -> Optional[Trace]:
        """Pending events as a batch trace; None when empty."""
        if not self.pending:
            return None
        # A batch is a few hundred events: each is its own table row
        # (identity codes), since finding the distinct rows would cost
        # more per flush than they save.
        chunks, events = self.chunks, self.pending
        batch = Trace.from_table(
            np.arange(events, dtype=np.uint32),
            *(np.concatenate(column) for column in zip(*chunks)),
            np.zeros(events, dtype=np.uint64),
            name=f"{self.session}#{self.batches}",
        )
        self.chunks, self.pending = [], 0
        return batch

    def requeue(self, batch: Trace) -> None:
        """Put a drained batch back in front of the pending buffer."""
        self.chunks.insert(0, EventColumns.of(batch))
        self.pending += len(batch)

    def snapshot(self) -> PredictorState:
        """Capture the live predictor as a serializable state."""
        return PredictorState.capture(self.predictor)

    def restore(self, state: PredictorState) -> None:
        """Rewind the live predictor to a captured state."""
        state.restore(self.predictor)

    def stats(self) -> Dict[str, object]:
        """The tenant's cumulative counters."""
        return {
            "session": self.session,
            "spec": self.spec,
            "events": self.events,
            "pending": self.pending,
            "batches": self.batches,
            "conditional_branches": self.conditional_branches,
            "mispredictions": self.mispredictions,
        }


class Shard:
    """Every open tenant, in open order, flushed through the fast engines."""

    def __init__(self, batch_size: Optional[int] = None):
        self.batch_size = (
            default_batch_size() if batch_size is None else max(1, batch_size)
        )
        self.tenants: Dict[str, Tenant] = {}
        self.flushes = 0
        self.replays = 0

    def open(self, session: str, spec: str) -> Tenant:
        """Create (or return) the tenant for ``session``.

        Reconnecting with a different spec is a client bug and fails
        loudly rather than silently resetting predictor state.
        """
        tenant = self.tenants.get(session)
        if tenant is not None:
            if tenant.spec != spec:
                raise ValueError(
                    f"session {session!r} is open with spec "
                    f"{tenant.spec!r}, not {spec!r}"
                )
            return tenant
        tenant = Tenant(session, spec)
        self.tenants[session] = tenant
        return tenant

    def tenant(self, session: str) -> Tenant:
        """The open tenant for ``session``; KeyError when unknown."""
        try:
            return self.tenants[session]
        except KeyError:
            raise KeyError(f"no open session {session!r}") from None

    def append(self, session: str, events: EventColumns) -> bool:
        """Buffer one request's events; True when the tenant's pending
        events reach the batch size."""
        tenant = self.tenant(session)
        tenant.append(events)
        return tenant.pending >= self.batch_size

    def flush_tenant(self, tenant: Tenant) -> int:
        """Evaluate one tenant's pending batch; returns events flushed.

        The crash-consistency core: snapshot → engine → fault gate →
        commit.  An :class:`InjectedFault` between the engine run and the
        commit models a flush dying with results computed but not yet
        applied; recovery restores the pre-batch snapshot and replays the
        identical batch.  After :data:`RETRY_LIMIT` replays — or at once
        for any other engine error — the predictor is restored, the
        batch is requeued (pending events are never lost) and the error
        propagates to the caller.
        """
        batch = tenant.drain()
        if batch is None:
            return 0
        for attempt in range(RETRY_LIMIT + 1):
            snapshot = tenant.snapshot()
            try:
                result = simulate_fast(
                    tenant.predictor, batch, label=tenant.spec
                )
                maybe_fail("serving-shard")
            except Exception as exc:
                tenant.restore(snapshot)
                if isinstance(exc, InjectedFault) and attempt < RETRY_LIMIT:
                    self.replays += 1
                    continue
                tenant.requeue(batch)
                raise
            tenant.conditional_branches += result.conditional_branches
            tenant.mispredictions += result.mispredictions
            tenant.batches += 1
            self.flushes += 1
            return len(batch)
        raise AssertionError("unreachable")  # pragma: no cover

    def flush(self, session: Optional[str] = None) -> int:
        """Flush one tenant (or, with ``session=None``, every tenant).

        A tenant whose flush raises does not stop the others: every
        tenant is flushed, then the first error is re-raised (the failed
        batch is already back in its tenant's pending buffer).
        """
        if session is not None:
            return self.flush_tenant(self.tenant(session))
        flushed = 0
        error: Optional[Exception] = None
        for tenant in self.tenants.values():
            try:
                flushed += self.flush_tenant(tenant)
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error
        return flushed

    def close(self, session: str) -> Dict[str, object]:
        """Flush and remove a tenant; returns its final stats."""
        tenant = self.tenant(session)
        self.flush_tenant(tenant)
        stats = tenant.stats()
        del self.tenants[session]
        return stats
