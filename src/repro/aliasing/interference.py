"""Destructive / harmless / constructive interference classification.

The Young-Gloy-Smith taxonomy the paper builds on (section 1): an aliased
access is

- **destructive** when the shared entry causes a misprediction that the
  unaliased predictor would have avoided,
- **constructive** when the shared entry happens to predict correctly
  where the unaliased predictor would have been wrong,
- **harmless** when the prediction direction is unaffected.

:func:`classify_interference` runs a tag-less counter table, a parallel
tag store (to detect which accesses are aliased) and an unaliased shadow
predictor side by side over a trace, and counts each category.  The
result quantifies the paper's premise that constructive aliasing is much
rarer than destructive aliasing — which is what licenses treating every
removed alias as a win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.aliasing.tagged_table import TaggedDirectMappedTable
from repro.aliasing.three_cs import pair_index_fn
from repro.core.counters import CounterArray, counter_init_value
from repro.traces.trace import Trace

__all__ = ["InterferenceBreakdown", "classify_interference"]


@dataclass(frozen=True)
class InterferenceBreakdown:
    """Counts of aliased accesses by effect on the prediction."""

    scheme: str
    entries: int
    history_bits: int
    conditional_branches: int
    unaliased_accesses: int
    destructive: int
    harmless: int
    constructive: int
    first_encounters: int

    @property
    def aliased_accesses(self) -> int:
        return self.destructive + self.harmless + self.constructive

    @property
    def destructive_ratio(self) -> float:
        """Destructive events over dynamic conditional branches."""
        if self.conditional_branches == 0:
            return 0.0
        return self.destructive / self.conditional_branches

    @property
    def constructive_ratio(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.constructive / self.conditional_branches


def classify_interference(
    trace: Trace,
    entries: int,
    history_bits: int,
    scheme: str = "gshare",
    counter_bits: int = 2,
) -> InterferenceBreakdown:
    """Classify every aliased access of a tag-less table over ``trace``."""
    index_bits = max(0, entries.bit_length() - 1)
    if 1 << index_bits != entries:
        raise ValueError(f"entry count must be a power of two, got {entries}")

    index_fn = pair_index_fn(scheme, index_bits, history_bits)
    counters = CounterArray(entries, bits=counter_bits)
    tags = TaggedDirectMappedTable(entries, index_fn)
    shadow: Dict[Tuple[int, int], int] = {}
    max_value = (1 << counter_bits) - 1
    threshold = (max_value + 1) // 2

    mask = (1 << history_bits) - 1 if history_bits else 0
    history = 0
    destructive = harmless = constructive = 0
    first_encounters = 0
    conditional_branches = 0

    for pc, taken, conditional in trace.sim_events():
        if conditional:
            conditional_branches += 1
            pair = (pc >> 2, history)
            aliased = tags.access(pair)

            index = index_fn(pair)
            table_prediction = counters.values[index] >= threshold
            counters.update(index, taken)

            shadow_value = shadow.get(pair)
            if shadow_value is None:
                # First encounter: the unaliased reference makes no
                # prediction here, so the event is not classifiable.
                first_encounters += 1
                shadow[pair] = counter_init_value(counter_bits, taken)
            else:
                shadow_prediction = shadow_value >= threshold
                if taken:
                    if shadow_value < max_value:
                        shadow[pair] = shadow_value + 1
                elif shadow_value > 0:
                    shadow[pair] = shadow_value - 1

                if aliased:
                    table_correct = table_prediction == taken
                    shadow_correct = shadow_prediction == taken
                    if table_correct and not shadow_correct:
                        constructive += 1
                    elif shadow_correct and not table_correct:
                        destructive += 1
                    else:
                        harmless += 1
        history = ((history << 1) | taken) & mask

    unaliased = (
        conditional_branches
        - destructive
        - harmless
        - constructive
        - first_encounters
    )
    return InterferenceBreakdown(
        scheme=scheme,
        entries=entries,
        history_bits=history_bits,
        conditional_branches=conditional_branches,
        unaliased_accesses=unaliased,
        destructive=destructive,
        harmless=harmless,
        constructive=constructive,
        first_encounters=first_encounters,
    )
