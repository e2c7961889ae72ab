"""Memory of the Figure 1 size sweep, per conditional event.

Loads one IBS clone, then runs ``measure_aliasing_sweep`` over it once
and prints, as one JSON object, the trace's conditional-event count, the
sweep's wall time and its peak RSS growth: the peak resident set during
the sweep minus the resident set just before it, in bytes per
conditional event.  RSS, not ``tracemalloc``, because the C kernel's own
buffers are invisible to the latter.  The sweep runs in a forked child,
whose peak starts at its resident set when forked, so the trace's
generation does not count.

Run:  python tools/sweep_memory.py [benchmark] [scale] [size ...]

Defaults: nroff at scale 1, the Figure 1 grid (32 to 8K entries), and
a 4-bit history.
"""

import json
import os
import resource
import sys
import time

from repro.aliasing.vectorized import measure_aliasing_sweep
from repro.experiments.common import DEFAULT_SIZES
from repro.experiments.figure1 import HISTORY_BITS
from repro.sim.native import native_available
from repro.traces.synthetic.workloads import ibs_trace


def _resident() -> int:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize()


def _peak() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "nroff"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    sizes = [int(size) for size in sys.argv[3:]] or list(DEFAULT_SIZES)
    native = native_available()
    trace = ibs_trace(name, scale)
    read, write = os.pipe()
    child = os.fork()
    if child == 0:
        os.close(read)
        # Fault in every page of code the sweep runs before measuring.
        measure_aliasing_sweep(trace.head(1_000), sizes, HISTORY_BITS)
        before = _resident()
        started = time.perf_counter()
        measure_aliasing_sweep(trace, sizes, HISTORY_BITS)
        seconds = time.perf_counter() - started
        os.write(write, json.dumps([seconds, _peak() - before]).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        seconds, growth = json.loads(pipe.read())
    if os.waitpid(child, 0)[1] != 0:
        sys.exit("the measuring child failed")
    events = trace.conditional_count
    print(json.dumps({
        "benchmark": name,
        "scale": scale,
        "sizes": sizes,
        "native": native,
        "conditional_events": events,
        "sweep_s": round(seconds, 4),
        "growth_bytes_per_event": round(growth / max(1, events), 2),
    }))


if __name__ == "__main__":
    main()
