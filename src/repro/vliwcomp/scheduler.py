"""Resource-constrained list scheduling of one basic block.

Classic cycle-driven list scheduling: at each cycle, ready operations
(all predecessors issued early enough) are chosen greedily by
critical-path height, subject to the per-class function-unit counts of
the target processor.  The output records which operations share each
VLIW instruction — the quantity the instruction-format assembler encodes —
and the block's issue-cycle count, used for processor-cycle estimation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ScheduleError
from repro.isa.operations import OP_CLASSES, OpClass, Operation
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
    """

    instructions: tuple[tuple[int, ...], ...]
    cycles: int

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
    if not operations:
        return BlockSchedule(instructions=(), cycles=0)

    if graph is None:
        graph = build_dependence_graph(operations, mdes)
    n = len(operations)
    units = [mdes.processor.units[cls] for cls in OP_CLASSES]
    unit_of = [OP_CLASSES.index(op.opclass) for op in operations]
    # Position of each op in priority order: highest critical path
    # first, index breaking ties deterministically.
    rank = [0] * n
    for position, i in enumerate(
        sorted(range(n), key=lambda i: (-graph.height[i], i))
    ):
        rank[i] = position

    # An op waits until every predecessor has issued in an earlier
    # cycle; it is then ready once the edge delays have elapsed
    # (``earliest``).
    unissued_preds = [len(preds) for preds in graph.preds]
    earliest = [0] * n
    waiting = [i for i in range(n) if not unissued_preds[i]]
    remaining = n
    instructions: list[tuple[int, ...]] = []
    cycle = 0
    last_issue = 0
    max_cycles = _cycle_budget(n, graph.height)

    while remaining:
        if cycle > max_cycles:
            raise ScheduleError(
                f"scheduler exceeded {max_cycles} cycles for a "
                f"{n}-operation block; dependence graph is inconsistent"
            )
        free = units.copy()
        issued: list[int] = []
        ready = sorted(
            (i for i in waiting if earliest[i] <= cycle), key=rank.__getitem__
        )
        for i in ready:
            unit = unit_of[i]
            if free[unit]:
                free[unit] -= 1
                issued.append(i)
        if issued:
            issued.sort()
            now_waiting = [i for i in waiting if i not in issued]
            for i in issued:
                for succ, delay in graph.succs[i]:
                    need = cycle + delay
                    if need > earliest[succ]:
                        earliest[succ] = need
                    unissued_preds[succ] -= 1
                    if not unissued_preds[succ]:
                        now_waiting.append(succ)
            waiting = now_waiting
            instructions.append(tuple(issued))
            remaining -= len(issued)
            last_issue = cycle
        cycle += 1

    return BlockSchedule(
        instructions=tuple(instructions), cycles=last_issue + 1
    )


def _cycle_budget(n_ops: int, heights: list[int]) -> int:
    """Upper bound on legal schedule length (safety net)."""
    return 4 * (n_ops + max(heights, default=1)) + 16


def schedule_is_legal(
    operations: list[Operation],
    mdes: MachineDescription,
    schedule: BlockSchedule,
) -> bool:
    """Check resource and dependence legality of a schedule (for tests)."""
    graph = build_dependence_graph(operations, mdes)
    cycle_of: dict[int, int] = {}
    # Reconstruct issue cycles: instructions are in cycle order but empty
    # cycles are elided, so recompute by replaying dependences greedily.
    cycle = 0
    for instr in schedule.instructions:
        counts: dict[OpClass, int] = {}
        for i in instr:
            cls = operations[i].opclass
            counts[cls] = counts.get(cls, 0) + 1
        if any(
            counts.get(cls, 0) > mdes.processor.units[cls] for cls in counts
        ):
            return False
        # Advance to the first cycle where every member's deps are met.
        while not all(
            all(
                p in cycle_of and cycle_of[p] + d <= cycle
                for p, d in graph.preds[i]
            )
            for i in instr
        ):
            cycle += 1
        for i in instr:
            cycle_of[i] = cycle
        cycle += 1
    if len(cycle_of) != len(operations):
        return False
    for i in range(len(operations)):
        for succ, delay in graph.succs[i]:
            if cycle_of[succ] - cycle_of[i] < delay:
                return False
    return True
