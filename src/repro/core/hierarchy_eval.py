"""System performance: processor cycles plus cache stall cycles.

The hierarchical evaluation of Section 3.2: "The overall execution time
consists of the processor cycles and the stall cycles from each of the
caches.  We independently determine the processor cycles for a VLIW
processor and the stall cycles for each cache configuration."  As the
paper notes, ignoring overlap between execution and miss latency is a
deliberate accuracy/throughput trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.trace.events import EventTrace
from repro.vliwcomp.compile import CompiledProgram


@dataclass(frozen=True)
class MissPenalties:
    """Stall cycles charged per miss at each hierarchy level.

    L1 misses that hit in the unified cache cost ``l1_miss``; unified
    misses additionally cost ``l2_miss`` (main-memory latency).
    """

    l1_miss: int = 10
    l2_miss: int = 50

    def __post_init__(self) -> None:
        if self.l1_miss < 0 or self.l2_miss < 0:
            raise ConfigurationError("miss penalties must be non-negative")


@dataclass(frozen=True)
class SystemEvaluation:
    """Cycle breakdown of one (processor, memory hierarchy) design."""

    processor_cycles: int
    icache_stalls: float
    dcache_stalls: float
    unified_stalls: float

    @property
    def total_cycles(self) -> float:
        return (
            self.processor_cycles
            + self.icache_stalls
            + self.dcache_stalls
            + self.unified_stalls
        )

    @property
    def memory_stall_fraction(self) -> float:
        total = self.total_cycles
        if total == 0:
            return 0.0
        return (total - self.processor_cycles) / total


def processor_cycles(compiled: CompiledProgram, events: EventTrace) -> int:
    """Issue cycles the processor spends: sum over visits of block cycles.

    This is the schedule-length-times-profile estimate the paper's
    processor evaluator uses (Section 3.2: "estimated using schedule
    lengths and profile statistics"): one dot product of the visit
    frequencies with the compiled cycles of the visited blocks.
    """
    index = compiled.index
    rows = np.fromiter(
        (index[key] for key in events.blocks), np.int64, len(events.blocks)
    )
    return int(events.visit_frequencies() @ compiled.cycles[rows])


def evaluate_system(
    compiled: CompiledProgram,
    events: EventTrace,
    icache_misses: float,
    dcache_misses: float,
    unified_misses: float,
    penalties: MissPenalties = MissPenalties(),
) -> SystemEvaluation:
    """Combine subsystem evaluations into total execution cycles."""
    return SystemEvaluation(
        processor_cycles=processor_cycles(compiled, events),
        icache_stalls=icache_misses * penalties.l1_miss,
        dcache_stalls=dcache_misses * penalties.l1_miss,
        unified_stalls=unified_misses * penalties.l2_miss,
    )
