"""Register-pressure estimation and spill modeling.

The paper's step-1 assumption (data traces identical across processors) is
violated by exactly two compiler effects: extra register spills on wider
machines and extra speculative loads (Section 4.1).  This module models the
spill side: live ranges are measured on the *schedule* — a wider machine
packs operations into fewer cycles, overlapping more live ranges, so spill
pressure rises naturally with issue width without any ad-hoc width factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.isa.operations import Operation
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.scheduler import BlockSchedule

#: Stream id reserved for spill traffic; the data-address model gives this
#: stream a small stack-like region with high locality (the paper argues
#: spill code "is likely to have high locality").
SPILL_STREAM: int = -1

#: Registers the allocator reserves (stack pointer, return address, ...).
_RESERVED_REGISTERS = 8


@dataclass(frozen=True)
class SpillEstimate:
    """Spill loads/stores a block needs on a given processor."""

    max_live: int
    spill_stores: int
    spill_loads: int

    @property
    def total_ops(self) -> int:
        return self.spill_stores + self.spill_loads


def estimate_spills(
    operations: Sequence[Operation],
    schedule: BlockSchedule,
    mdes: MachineDescription,
) -> SpillEstimate:
    """Estimate spill traffic for one scheduled block.

    A virtual register is live from its definition's issue cycle to its
    last use's issue cycle.  When the peak overlap exceeds the integer
    register file (minus reserved registers), each excess value is spilled:
    one store at the definition and one load at the (last) use.
    """
    issue_of = _issue_cycles(schedule)
    def_cycle: dict[int, int] = {}
    last_use_cycle: dict[int, int] = {}
    for index, cycle in issue_of.items():
        op = operations[index]
        for src in op.srcs:
            if src in def_cycle:
                last_use_cycle[src] = max(last_use_cycle.get(src, 0), cycle)
        for dst in op.dests:
            # First definition wins; redefinitions reuse the same name.
            def_cycle.setdefault(dst, cycle)

    events: list[tuple[int, int]] = []
    for reg, start in def_cycle.items():
        end = last_use_cycle.get(reg, start)
        events.append((start, +1))
        events.append((end + 1, -1))
    events.sort()
    live = 0
    max_live = 0
    for _, delta in events:
        live += delta
        if live > max_live:
            max_live = live

    excess = max(0, max_live - register_budget(mdes))
    return SpillEstimate(
        max_live=max_live, spill_stores=excess, spill_loads=excess
    )


def register_budget(mdes: MachineDescription) -> int:
    """Integer registers left for values once the reserved ones are out."""
    return max(1, mdes.processor.int_registers - _RESERVED_REGISTERS)


def bounded_spill_ops(
    operations: Sequence[Operation],
    schedule: BlockSchedule,
    mdes: MachineDescription,
    distinct_dests: int,
) -> tuple[int, int]:
    """Spill operations of one scheduled block and an upper bound on its
    peak live count.  At most ``distinct_dests`` values are ever live, so
    a block with no more of them than the register budget spills nothing
    without the event sweep of :func:`estimate_spills`."""
    if distinct_dests <= register_budget(mdes):
        return 0, distinct_dests
    estimate = estimate_spills(operations, schedule, mdes)
    return estimate.total_ops, estimate.max_live


def _issue_cycles(schedule: BlockSchedule) -> dict[int, int]:
    """Map operation index -> issue cycle (instruction ordinal)."""
    out: dict[int, int] = {}
    for cycle, instr in enumerate(schedule.instructions):
        for index in instr:
            out[index] = cycle
    return out
