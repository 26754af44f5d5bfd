"""Compile a program for a particular VLIW processor.

``compile_program`` runs, per basic block:

1. *speculation* — on speculation-capable machines with issue-width
   headroom, loads from likely successor blocks are hoisted (duplicated)
   into the block, growing both static code size and the dynamic data
   trace, as Section 4.1 describes;
2. *scheduling* — list scheduling onto the machine's function units;
3. *spill modeling* — peak live-range overlap beyond the register file
   adds spill store/load pairs, which are appended and the block is
   rescheduled once for encoding.

The result feeds three consumers: the assembler (instruction encoding and
code size), the emulator's trace decoration (spill/speculative data
references) and the hierarchy evaluator (processor cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.operations import Operation, make_load, make_store
from repro.isa.program import Program
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.depgraph import GraphCache, cached_dependence_graph
from repro.vliwcomp.regalloc import SPILL_STREAM, estimate_spills
from repro.vliwcomp.scheduler import BlockSchedule, schedule_block


@dataclass(frozen=True)
class CompiledBlock:
    """One basic block compiled for one processor."""

    block_id: int
    operations: tuple[Operation, ...]
    schedule: BlockSchedule
    speculative_streams: tuple[int, ...]
    spill_ops: int
    #: Successor block the hoisted loads were taken from (the compiler's
    #: static prediction); None when nothing was hoisted.  The emulator
    #: compares the actual branch outcome against this to decide whether
    #: a speculative load ran down the wrong path.
    predicted_successor: int | None = None

    @property
    def issue_cycles(self) -> int:
        return self.schedule.cycles

    @property
    def num_instructions(self) -> int:
        return self.schedule.num_instructions


@dataclass
class CompiledProgram:
    """A whole program compiled for one processor."""

    program: Program
    mdes: MachineDescription
    blocks: dict[tuple[str, int], CompiledBlock] = field(default_factory=dict)

    def block(self, proc_name: str, block_id: int) -> CompiledBlock:
        """The compiled form of one basic block."""
        return self.blocks[(proc_name, block_id)]

    @property
    def processor_name(self) -> str:
        return self.mdes.processor.name

    def total_instructions(self) -> int:
        """VLIW instructions across all blocks (static count)."""
        return sum(b.num_instructions for b in self.blocks.values())

    def total_operations(self) -> int:
        """Operations across all blocks, including spill/speculative ones."""
        return sum(len(b.operations) for b in self.blocks.values())


def speculation_capacity(issue_width: int) -> int:
    """Speculative loads hoisted per block as a function of issue width.

    The reference-class 4-wide machine speculates nothing extra; headroom
    above that buys roughly one hoisted load per two extra issue slots
    (4 -> 0, 5 -> 1, 8 -> 2, 9 -> 3, 14 -> 5), matching the paper's
    qualitative claim that wider processors "tend to speculate more
    often".
    """
    return max(0, (issue_width - 4 + 1) // 2)


def compile_program(
    program: Program,
    mdes: MachineDescription,
    graphs: GraphCache | None = None,
) -> CompiledProgram:
    """Compile every block of ``program`` for ``mdes.processor``.

    ``graphs`` is an optional dependence-graph cache shared across
    compilations: processors with the same latency table and the same
    hoisted/spill operations then build each block's graph once.
    """
    compiled = CompiledProgram(program=program, mdes=mdes)
    capacity = (
        speculation_capacity(mdes.processor.issue_width)
        if mdes.processor.has_speculation
        else 0
    )
    for proc in program.procedures.values():
        for blk in proc.blocks:
            hoisted, predicted = _hoistable_loads(
                program, proc.name, blk.block_id, capacity
            )
            base_ops = list(blk.operations) + hoisted
            schedule = schedule_block(
                base_ops, mdes, cached_dependence_graph(base_ops, mdes, graphs)
            )
            spills = estimate_spills(base_ops, schedule, mdes)
            final_ops = base_ops + _spill_ops(spills.total_ops)
            if spills.total_ops:
                schedule = schedule_block(
                    final_ops,
                    mdes,
                    cached_dependence_graph(final_ops, mdes, graphs),
                )
            compiled.blocks[(proc.name, blk.block_id)] = CompiledBlock(
                block_id=blk.block_id,
                operations=tuple(final_ops),
                schedule=schedule,
                speculative_streams=tuple(op.stream for op in hoisted),
                spill_ops=spills.total_ops,
                predicted_successor=predicted if hoisted else None,
            )
    return compiled


def _hoistable_loads(
    program: Program, proc_name: str, block_id: int, capacity: int
) -> tuple[list[Operation], int | None]:
    """Loads hoisted from the likeliest successor block (speculation).

    Returns the hoisted operations and the predicted successor's id.
    """
    if capacity == 0:
        return [], None
    proc = program.procedure(proc_name)
    edges = proc.successors(block_id)
    if not edges:
        return [], None
    likely = max(edges, key=lambda e: (e.probability, -e.dst))
    successor = proc.block(likely.dst)
    hoisted: list[Operation] = []
    for op in successor.operations:
        if op.is_load:
            hoisted.append(
                Operation(
                    op.opclass,
                    dests=op.dests,
                    srcs=op.srcs,
                    is_load=True,
                    stream=op.stream,
                    speculative=True,
                )
            )
            if len(hoisted) >= capacity:
                break
    return hoisted, likely.dst


#: Virtual-register base for spill temporaries, far above any register the
#: workload generator emits, so spill ops add no false dependences beyond
#: their own same-stream ordering.
_SPILL_REG_BASE = 1_000_000


def _spill_ops(count: int) -> list[Operation]:
    """``count`` spill operations, alternating store/load pairs."""
    ops: list[Operation] = []
    for i in range(count):
        reg = _SPILL_REG_BASE + 2 * i
        if i % 2 == 0:
            ops.append(
                make_store(value_src=reg, addr_src=reg + 1, stream=SPILL_STREAM)
            )
        else:
            ops.append(
                make_load(dest=reg, addr_src=reg + 1, stream=SPILL_STREAM)
            )
    return ops
