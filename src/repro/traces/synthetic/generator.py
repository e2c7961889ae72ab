"""Top-level synthetic-trace generation.

Assembles the program builder, the OS scheduler and the program runner
into a :class:`~repro.traces.trace.Trace`.  A :class:`WorkloadConfig`
fully determines the trace (all randomness is seeded), so workloads
behave like fixed benchmark inputs: the same config always yields
byte-identical traces.

Generation runs in three steps: plan the schedule
(:func:`~repro.traces.synthetic.kernel.plan_schedule`), run each program
once for its total demand (:func:`~repro.traces.synthetic.cfg.run_program`),
then gather the four trace columns from the programs' event tables with
one numpy index over the schedule's segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.traces.synthetic.behavior import BehaviorMix
from repro.traces.synthetic.cfg import (
    Program,
    ProgramConfig,
    build_program,
    run_program,
)
from repro.traces.synthetic.kernel import SchedulerConfig, plan_schedule
from repro.traces.trace import Trace

__all__ = ["WorkloadConfig", "generate_trace"]

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
    sources: List[Tuple[Program, int]] = [
        (
            build_program(
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
                build_program(
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
    # for the total, with its table rows and stream offset past those of
    # the sources before it.
    demand = [0] * len(sources)
    for source, count in segments:
        demand[source] += count
    rows: list = []
    streams = []
    stream_start = []
    emitted = 0
    for (program, seed), need in zip(sources, demand):
        table, codes = run_program(program, seed, need)
        streams.append(np.array(codes, dtype=np.int64) + len(rows))
        rows.extend(table)
        stream_start.append(emitted)
        emitted += need

    # Segment k's events sit at stream positions
    # starts[k] .. starts[k] + counts[k] - 1.
    starts = []
    for source, count in segments:
        starts.append(stream_start[source])
        stream_start[source] += count
    counts = np.array([count for _, count in segments], dtype=np.int64)
    ends = np.cumsum(counts)
    index = np.repeat(np.array(starts, dtype=np.int64) - (ends - counts), counts)
    index += np.arange(config.length, dtype=np.int64)
    codes = np.concatenate(streams)[index]

    pcs, takens, conditionals, targets = zip(*rows)
    return Trace(
        np.array(pcs, dtype=np.uint64)[codes],
        np.array(takens, dtype=np.uint8)[codes],
        np.array(conditionals, dtype=np.uint8)[codes],
        np.array(targets, dtype=np.uint64)[codes],
        name=config.name,
        seed=config.seed,
    )
