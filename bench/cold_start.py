"""One cold set-up of a workload, timed phase by phase.

``run.py`` starts this in a fresh interpreter with ``REPRO_TRACE_CACHE``
pointing at an empty directory.  It imports the benchmark and the
program, loads the native kernel and generates the workload's traces,
then prints the phase times and trace-cache counters as one JSON line::

    python3 bench/cold_start.py WORKLOAD SEED SMOKE(0|1)
"""

from __future__ import annotations

import json
import sys
import time

started = time.perf_counter()


def main(argv) -> None:
    workload, seed, smoke = argv[0], int(argv[1]), argv[2] == "1"
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import harness

    if workload.startswith("serve"):
        import serve_workloads  # noqa: F401
    else:
        import sim_workloads  # noqa: F401
    from repro.sim import native_available
    from repro.traces import cache_stats, generate_trace_cached

    imported = time.perf_counter()
    native_available()
    loaded = time.perf_counter()
    for config in harness.workload_configs(workload, seed, smoke):
        generate_trace_cached(config)
    generated = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - started,
                "native_s": loaded - imported,
                "generate_s": generated - loaded,
                "cache": cache_stats(),
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1:])
