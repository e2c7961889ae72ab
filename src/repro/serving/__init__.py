"""Prediction-as-a-service: the multi-tenant serving layer.

See ``docs/serving.md`` for the architecture.  The short version:

- :mod:`repro.serving.shard` — per-tenant predictors in one tenant
  table, micro-batch flushes through the fast engines, snapshot-based
  crash recovery (the ``serving-shard`` fault site);
- :mod:`repro.serving.server` — :class:`PredictionService` (in-process
  dispatcher) and :class:`PredictionServer` (asyncio TCP front end);
- :mod:`repro.serving.client` — the asyncio protocol client;
- :mod:`repro.serving.protocol` — the newline-JSON wire format and its
  packed ``events`` frame.

The correctness contract everything above leans on: feeding a tenant's
event stream through the server in *any* batching is bit-identical —
predictions and final :class:`~repro.sim.state.PredictorState` — to one
serial :func:`repro.sim.vectorized.simulate_fast` run over that stream.
"""

from repro.serving.client import PredictionClient, ServingError
from repro.serving.server import PredictionServer, PredictionService
from repro.serving.shard import Shard, Tenant

__all__ = [
    "PredictionClient",
    "PredictionServer",
    "PredictionService",
    "ServingError",
    "Shard",
    "Tenant",
]
