"""The prediction server process of the serving workloads.

Prints ``READY <port>`` once it listens on 127.0.0.1, serves until its
standard input closes, then stops.  ``--cpu N`` keeps it on CPU ``N``.
With ``--trace-out FILE`` it times the serving layers by wrapping the
functions the server calls, and writes the spans to FILE as JSON when it
stops.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import Tracer  # noqa: E402

from repro.serving import server as server_module  # noqa: E402
from repro.serving import shard as shard_module  # noqa: E402
from repro.sim import state as state_module  # noqa: E402


def _flushed(tracer: Tracer, call) -> None:
    if call.result:
        tracer.add("flushes", 1)
        tracer.add("flush_events", call.result)
        tracer.add("flush_s", call.elapsed)
        if call.parent == "linger":
            tracer.add("linger_flushes", 1)
            tracer.add("linger_flush_s", call.elapsed)


def _captured(tracer: Tracer, call) -> None:
    if call.parent == "flush":
        tracer.add("flush_capture_s", call.elapsed)


def _serialized(tracer: Tracer, call) -> None:
    tracer.add("state_bytes", len(call.result))


def install(tracer: Tracer) -> None:
    """Wrap each serving layer at the name its caller binds."""
    tracer.wrap(server_module, "decode_request", "decode")
    tracer.wrap(server_module, "encode_message", "encode")
    tracer.wrap(
        server_module.PredictionService, "handle", lambda self, request: f"op.{request['op']}"
    )
    # The linger timer flushes whole shards (no session); requests flush one.
    tracer.wrap(
        shard_module.Shard,
        "flush",
        lambda self, session=None: "linger" if session is None else "flush_call",
    )
    tracer.wrap(shard_module.Shard, "flush_tenant", "flush", _flushed)
    tracer.wrap(shard_module, "simulate_fast", "engine")
    tracer.wrap(shard_module.Tenant, "snapshot", "capture", _captured)
    tracer.wrap(state_module.PredictorState, "to_bytes", "to_bytes", _serialized)
    tracer.add("batch_size", shard_module.default_batch_size())


async def serve(trace_out: Path = None) -> None:
    tracer = None
    if trace_out is not None:
        tracer = Tracer()
        install(tracer)
    server = server_module.PredictionServer(host="127.0.0.1", port=0)
    await server.start()
    print(f"READY {server.address[1]}", flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
    await server.stop()
    if tracer is not None:
        trace_out.write_text(json.dumps(tracer.to_json()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, help="write the serving spans here on exit")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    asyncio.run(serve(args.trace_out))


if __name__ == "__main__":
    main()
