"""Resource-constrained list scheduling of one basic block.

Classic cycle-driven list scheduling: at each cycle, ready operations
(all predecessors issued early enough) are chosen greedily by
critical-path height, subject to the per-class function-unit counts of
the target processor.  The output records which operations share each
VLIW instruction, the block's issue-cycle count (used for processor-cycle
estimation) and its instruction *mix*: how many instructions issue each
per-class op-count vector, the quantity the instruction-format assembler
encodes.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ScheduleError
from repro.isa.operations import MIX_FIELD_BITS, OP_CLASSES, Operation, pack_mix
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.depgraph import DependenceGraph, build_dependence_graph


@dataclass(frozen=True)
class BlockSchedule:
    """Schedule of one block on one processor.

    ``instructions`` holds, per issue cycle that issues at least one
    operation, the tuple of operation indexes issued.  ``cycles`` is the
    total issue-cycle span including stall (empty) cycles; ``cycles >=
    len(instructions)`` and the gap is the stall-cycle count the
    instruction format's multi-no-op bits must cover.

    ``mix`` maps each distinct packed per-class op count of an
    instruction (see :func:`~repro.isa.operations.pack_mix`) to the number
    of instructions that issue it.  It follows from ``instructions``, so
    it takes no part in equality; it is never changed.
    """

    instructions: tuple[tuple[int, ...], ...]
    cycles: int
    mix: dict[int, int] = field(compare=False, repr=False)

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    @property
    def stall_cycles(self) -> int:
        return self.cycles - len(self.instructions)

    def ops_per_instruction(self) -> float:
        """Average operations packed per issued instruction."""
        if not self.instructions:
            return 0.0
        total = sum(len(instr) for instr in self.instructions)
        return total / len(self.instructions)


def schedule_block(
    operations: list[Operation],
    mdes: MachineDescription,
    graph: DependenceGraph | None = None,
) -> BlockSchedule:
    """List-schedule ``operations`` onto ``mdes.processor``.

    ``graph`` is the operations' prebuilt dependence graph (built here
    when absent); it is only read.

    Raises :class:`ScheduleError` if no progress can be made (which would
    indicate a dependence-graph bug, since every processor has at least
    one unit per class).
    """
    if graph is None:
        graph = build_dependence_graph(operations, mdes)
    schedule, _ = list_schedule(
        graph,
        [OP_CLASSES.index(op.opclass) for op in operations],
        [mdes.processor.units[cls] for cls in OP_CLASSES],
    )
    return schedule


def list_schedule(
    graph: DependenceGraph, unit_of: Sequence[int], units: Sequence[int]
) -> tuple[BlockSchedule, tuple[int, ...]]:
    """List-schedule a block given as its graph and per-op unit classes.

    ``unit_of[i]`` is op ``i``'s class as an index into
    :data:`OP_CLASSES`; ``units`` holds the unit count of each class.
    Returns the schedule and, per class, the peak number of its ops that
    were ready in one cycle.  A class whose peak exceeds its units is
    *binding*; on any machine with the same units on every binding class
    and at least the peak on every other class, each cycle issues the
    same ops, so the schedule is the same.
    """
    if max(units) >> MIX_FIELD_BITS:
        raise ScheduleError(
            f"unit counts {tuple(units)} do not fit an instruction mix "
            f"({MIX_FIELD_BITS} bits per class)"
        )
    n = graph.n_ops
    if not n:
        empty = BlockSchedule(instructions=(), cycles=0, mix={})
        return empty, (0,) * len(units)
    height = graph.height
    succ_of = graph.succ
    delay_of = graph.delay
    # Ops in priority order (highest critical path first, index breaking
    # ties: the sort is stable); the waiting list holds positions in
    # this order, kept sorted.
    order = sorted(range(n), key=height.__getitem__, reverse=True)
    rank = [0] * n
    for position, i in enumerate(order):
        rank[i] = position

    # An op waits until every predecessor has issued in an earlier
    # cycle; it is then ready once the edge delays have elapsed
    # (``earliest``).
    unissued_preds = list(graph.n_preds)
    earliest = [0] * n
    waiting = sorted(rank[i] for i in range(n) if not unissued_preds[i])
    n_units = len(units)
    peak = [0] * n_units
    mix_unit = _MIX_UNIT
    remaining = n
    instructions: list[tuple[int, ...]] = []
    mix: dict[int, int] = {}
    cycle = 0
    last_issue = 0
    max_cycles = _cycle_budget(n, height)

    while remaining:
        if cycle > max_cycles or not waiting:
            raise ScheduleError(
                f"scheduler exceeded {max_cycles} cycles for a "
                f"{n}-operation block; dependence graph is inconsistent"
            )
        # ``ready[c]`` counts the ready ops of class ``c`` so far this
        # cycle; the first ``units[c]`` of them (in priority order) issue.
        ready = [0] * n_units
        issued: list[int] = []
        issued_mix = 0
        still_waiting: list[int] = []
        next_cycle = max_cycles + 1
        for position in waiting:
            i = order[position]
            start = earliest[i]
            if start > cycle:
                still_waiting.append(position)
                if start < next_cycle:
                    next_cycle = start
                continue
            unit = unit_of[i]
            count = ready[unit] + 1
            ready[unit] = count
            if count > peak[unit]:
                peak[unit] = count
            if count <= units[unit]:
                issued.append(i)
                issued_mix += mix_unit[unit]
            else:
                still_waiting.append(position)
                next_cycle = cycle + 1
        issued.sort()
        after = cycle + 1
        for i in issued:
            delays = delay_of[i]
            edge = 0
            for succ in succ_of[i]:
                need = cycle + delays[edge]
                edge += 1
                if need > earliest[succ]:
                    earliest[succ] = need
                left = unissued_preds[succ] - 1
                unissued_preds[succ] = left
                if not left:
                    insort(still_waiting, rank[succ])
                    start = earliest[succ]
                    if start < after:
                        start = after
                    if start < next_cycle:
                        next_cycle = start
        instructions.append(tuple(issued))
        mix[issued_mix] = mix.get(issued_mix, 0) + 1
        remaining -= len(issued)
        last_issue = cycle
        waiting = still_waiting
        # No op can be ready before ``next_cycle``: skip the idle cycles.
        cycle = next_cycle

    return (
        BlockSchedule(
            instructions=tuple(instructions), cycles=last_issue + 1, mix=mix
        ),
        tuple(peak),
    )


#: The packed mix of one op of each class, indexed like ``OP_CLASSES``.
_MIX_UNIT = tuple(
    pack_mix([0] * index + [1]) for index in range(len(OP_CLASSES))
)


def _cycle_budget(n_ops: int, heights: Sequence[int]) -> int:
    """Upper bound on legal schedule length (safety net)."""
    return 4 * (n_ops + max(heights, default=1)) + 16
