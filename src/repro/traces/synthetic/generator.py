"""Top-level synthetic-trace generation.

Assembles the program builder, the OS scheduler and the program runner
into a :class:`~repro.traces.trace.Trace`.  A :class:`WorkloadConfig`
fully determines the trace (all randomness is seeded), so workloads
behave like fixed benchmark inputs: the same config always yields
byte-identical traces.

Generation runs in three steps: compile each source's program
(:func:`~repro.traces.synthetic.cfg.compile_program`: built straight
into its flat arrays in the native C kernel where it built) and plan the
schedule (:func:`~repro.traces.synthetic.kernel.plan_schedule`), run
each program once for its total demand
(:func:`~repro.traces.synthetic.cfg.run_compiled`, in C too), then lay
the programs' codes out in schedule order, one slice of a program's
stream per segment.  The trace keeps those codes over the programs'
concatenated event tables (:meth:`~repro.traces.trace.Trace.from_table`):
no per-event column is built, and on the native path no per-branch or
per-row Python runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.cfg import (
    ProgramConfig,
    _Compiled,
    compile_program,
    run_compiled,
)
from repro.traces.synthetic.kernel import SchedulerConfig, plan_schedule
from repro.traces.trace import Trace

__all__ = ["GENERATOR_VERSION", "WorkloadConfig", "generate_trace"]

#: Version of the bytes :func:`generate_trace` emits.  Bump it with any
#: change that alters the trace of some config (re-pinning
#: ``tests/traces/synthetic/test_trace_pins.py``): the on-disk trace
#: cache fingerprints it, so entries from an older generator stop
#: matching instead of being served stale.
GENERATOR_VERSION = 1

# Virtual address-space layout: user process text segments are spaced
# widely apart and the kernel lives high, like a real OS memory map.
_USER_SEGMENT_BASE = 0x0040_0000
_USER_SEGMENT_STRIDE = 0x0100_0000
_KERNEL_SEGMENT_BASE = 0x8000_0000


@dataclass
class WorkloadConfig:
    """Everything needed to deterministically generate one trace."""

    name: str = "workload"
    seed: int = 1
    length: int = 200_000
    processes: int = 3
    static_branches_per_process: int = 500
    procedures_per_process: int = 24
    mix: BehaviorMix = field(default_factory=BehaviorMix)
    kernel_static_branches: int = 400
    kernel_mix: Optional[BehaviorMix] = None
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def program_config(self, process_index: int) -> ProgramConfig:
        """Program shape for user process ``process_index``."""
        return ProgramConfig(
            static_branches=self.static_branches_per_process,
            procedures=self.procedures_per_process,
            base_address=_USER_SEGMENT_BASE
            + process_index * _USER_SEGMENT_STRIDE,
            mix=self.mix,
            name=f"{self.name}.proc{process_index}",
        )

    def kernel_config(self) -> ProgramConfig:
        """Program shape for the kernel program."""
        mix = self.kernel_mix if self.kernel_mix is not None else self.mix
        return ProgramConfig(
            static_branches=self.kernel_static_branches,
            procedures=max(8, self.procedures_per_process),
            base_address=_KERNEL_SEGMENT_BASE,
            mix=mix,
            name=f"{self.name}.kernel",
        )

    def scaled(self, factor: float) -> "WorkloadConfig":
        """A copy with the dynamic trace length scaled by ``factor``.

        Static program structure is untouched: scaling changes how long
        the workload runs, not what it is, exactly like tracing a real
        benchmark for fewer instructions.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        return replace(self, length=max(1, int(self.length * factor)))


def generate_trace(config: WorkloadConfig) -> Trace:
    """Generate the deterministic trace described by ``config``."""
    # (program, run seed) per source: the user processes, then the
    # kernel when it runs.
    sources: List[Tuple[_Compiled, int]] = [
        (
            compile_program(
                config.program_config(index), seed=config.seed * 1009 + index
            ),
            config.seed * 9176 + index,
        )
        for index in range(config.processes)
    ]
    kernel = config.kernel_static_branches > 0 and config.scheduler.kernel_share > 0
    if kernel:
        sources.append(
            (
                compile_program(
                    config.kernel_config(), seed=config.seed * 5407 + 101
                ),
                config.seed * 7919 + 103,
            )
        )

    segments = plan_schedule(
        config.processes,
        kernel,
        length=config.length,
        config=config.scheduler,
        seed=config.seed * 31 + 7,
    )

    # Each source's segments, in order, continue one stream: run it once
    # for the total and copy each segment's slice into its place in the
    # trace's one code buffer, offset past the table rows of the sources
    # before it.
    placements: List[List[Tuple[int, int, int]]] = [[] for _ in sources]
    demand = [0] * len(sources)
    length = 0
    for source, count in segments:
        placements[source].append((length, demand[source], count))
        demand[source] += count
        length += count
    codes = np.empty(length, dtype=np.uint32)
    rows = 0
    for (program, seed), need, places in zip(sources, demand, placements):
        stream = run_compiled(program, seed, need)
        for at, start, count in places:
            # The Python runner may share its stream: offset the copy.
            target = codes[at : at + count]
            target[:] = stream[start : start + count]
            target += np.uint32(rows)
        rows += len(program.pcs)

    return Trace.from_table(
        codes,
        *(
            np.concatenate([getattr(program, column) for program, _ in sources])
            for column in ("pcs", "takens", "conditionals", "targets")
        ),
        name=config.name,
        seed=config.seed,
    )
