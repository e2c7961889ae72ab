"""OPT vs LRU — how conservative is the capacity/conflict boundary?

The paper bases its 3Cs split on a fully-associative *LRU* table and
notes (section 3.2) that "LRU is not an optimal replacement policy
[Sugumar-Abraham]; ... the LRU policy gives a reasonable base value of
the amount of conflict aliasing that can be removed by a hardware-only
scheme."

This experiment quantifies the slack: for each table size it compares
the LRU miss ratio with Belady-OPT.  The gap is aliasing that LRU
accounting charges to capacity but that better retention could remove —
i.e. the paper's conflict-aliasing estimates are *lower bounds*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.aliasing.opt_table import simulate_opt
from repro.experiments.common import load_benchmarks
from repro.experiments.report import format_series
from repro.traces.pairs import last_use_distances, pair_columns, pair_keys

__all__ = ["OptVsLruResult", "run", "render"]


@dataclass(frozen=True)
class OptVsLruResult:
    history_bits: int
    sizes: List[int]
    #: benchmark -> {"lru": [...], "opt": [...]} miss ratios by size
    curves: Dict[str, Dict[str, List[float]]]


def run(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = (64, 256, 1024, 4096),
    history_bits: int = 4,
) -> OptVsLruResult:
    """Run the experiment; see the module docstring for the design."""
    traces = load_benchmarks(benchmarks, scale)
    curves: Dict[str, Dict[str, List[float]]] = {}
    for trace in traces:
        keys = pair_keys(*pair_columns(trace, history_bits), history_bits)
        distances = last_use_distances(keys)
        opt_keys = keys.tolist()
        lru_ratios: List[float] = []
        opt_ratios: List[float] = []
        for entries in sizes:
            # An N-entry LRU table misses first uses and distances >= N.
            misses = np.count_nonzero((distances < 0) | (distances >= entries))
            lru_ratios.append(int(misses) / len(keys) if len(keys) else 0.0)
            opt_ratios.append(simulate_opt(opt_keys, entries).miss_ratio)
        curves[trace.name] = {"lru": lru_ratios, "opt": opt_ratios}
    return OptVsLruResult(
        history_bits=history_bits, sizes=list(sizes), curves=curves
    )


def render(result: OptVsLruResult) -> str:
    """Render the result as the paper-shaped ASCII report."""
    blocks: List[str] = []
    for benchmark, series in result.curves.items():
        blocks.append(
            format_series(
                "entries",
                result.sizes,
                {
                    "FA LRU": series["lru"],
                    "FA OPT": series["opt"],
                },
                title=(
                    f"OPT vs LRU fully-associative miss ratios, {benchmark} "
                    f"({result.history_bits}-bit history)"
                ),
            )
        )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI convenience
    """CLI convenience: run at default scale and print the report."""
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
