"""Compile a program for a particular VLIW processor.

``compile_program`` runs, for every basic block at once:

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

Every compilation goes through a :class:`BlockMemo`, the program's
operations as flat arrays and its dependence graphs; a design-space
exploration shares one across all of its processors.  Each processor
then takes one array pass: one lockstep schedule of every block, the
spill estimate, and one more lockstep schedule of the blocks that
spill.  The per-block compiler this replaces is the oracle
:func:`repro.oracles.compiler.compile_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.operations import OP_CLASSES, Operation, make_load, make_store
from repro.isa.program import BasicBlock, Procedure, Program
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.depgraph import BlockGraphs, FlatOps, build_graphs, flat_ops
from repro.vliwcomp.regalloc import SPILL_STREAM, register_budget, spill_ops
from repro.vliwcomp.scheduler import BlockSchedule, schedule_graphs


@dataclass(frozen=True, slots=True)
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


class BlockMemo:
    """One :class:`Program`'s operations as flat arrays, shared across
    the processors it is compiled for.

    It keeps the program's blocks in layout order and their operations
    as one :class:`~repro.vliwcomp.depgraph.FlatOps`, all built by the
    first compile (so its span pays for them).  Hoisted loads are
    appended ops, so a hoisted-load capacity fixes every block's
    operation list: per capacity the memo keeps those lists, and per
    (capacity, latency table) one dependence graph of every block.  The
    memo serves the one program it was made for and refuses any other.
    """

    def __init__(self, program: Program):
        self.program = program
        self._graphs: dict[tuple[int, tuple[int, ...]], BlockGraphs] = {}
        self._operations: dict[int, list[tuple]] = {}

    @cached_property
    def blocks(self) -> list[BasicBlock]:
        """The program's blocks in layout order, built on first use."""
        return [blk for _, blk in self.program.all_blocks()]

    @cached_property
    def keys(self) -> list[tuple[str, int]]:
        """Each block's (procedure name, block id), shared with the
        program's block index when no key repeats."""
        index = self.program.block_index()
        if len(index) == len(self.blocks):
            return list(index)
        return [(name, blk.block_id) for name, blk in self.program.all_blocks()]

    @cached_property
    def ops(self) -> FlatOps:
        """Every block's operations as flat arrays."""
        return flat_ops([blk.operations for blk in self.blocks])

    def check(self, program: Program) -> None:
        """Refuse any program but the one the memo was made for."""
        if program is not self.program:
            raise ConfigurationError(
                f"block memo of program {self.program.name!r} cannot "
                f"compile program {program.name!r}"
            )

    @cached_property
    def successors(self) -> list[tuple[int, tuple[Operation, ...]] | None]:
        """Per block, its likeliest successor's position and speculative
        copies of that successor's loads (None without a successor)."""
        position = {id(blk): k for k, blk in enumerate(self.blocks)}
        return [
            None if succ is None
            else (position[id(succ)], _speculative_loads(succ))
            for succ in (
                _likely_successor(proc, blk.block_id)
                for proc in self.program.procedures.values()
                for blk in proc.blocks
            )
        ]

    def operations(self, capacity: int) -> list[tuple]:
        """Per block, its operations with up to ``capacity`` hoisted
        loads, the hoisted loads' streams and the successor they came
        from (None when nothing was hoisted)."""
        found = self._operations.get(capacity)
        if found is None:
            hoists = self.successors if capacity else [None] * len(self.blocks)
            found = self._operations[capacity] = [
                (tuple(blk.operations), (), None)
                if hoist is None or not hoist[1]
                else (
                    (*blk.operations, *hoist[1][:capacity]),
                    tuple(op.stream for op in hoist[1][:capacity]),
                    self.blocks[hoist[0]].block_id,
                )
                for blk, hoist in zip(self.blocks, hoists)
            ]
        return found

    def graphs(self, capacity: int, latencies: tuple[int, ...]) -> BlockGraphs:
        """Dependence graphs of every block with up to ``capacity``
        hoisted loads, for one latency table."""
        key = (capacity, latencies)
        if key not in self._graphs:
            ops = self.ops
            if capacity:
                ops = ops.take(*self._hoisted_positions(capacity))
            self._graphs[key] = build_graphs(ops, latencies)
        return self._graphs[key]

    def _hoisted_positions(self, capacity: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions of each block's ops followed by the first
        ``capacity`` loads of its successor, and the new block bounds."""
        bounds = self.ops.bounds
        loads = np.flatnonzero(
            np.fromiter(
                (op.is_load for blk in self.blocks for op in blk.operations),
                bool,
                int(bounds[-1]),
            )
        )
        first = np.searchsorted(loads, bounds)
        source = np.array(
            [-1 if hoist is None else hoist[0] for hoist in self.successors],
            dtype=np.int64,
        )
        head = np.diff(bounds)
        sizes = head + np.where(
            source < 0, 0, np.minimum(np.diff(first)[source], capacity)
        )
        grown = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=grown[1:])
        block = np.repeat(np.arange(len(sizes)), sizes)
        offset = np.arange(grown[-1]) - grown[block]
        positions = bounds[block] + offset
        hoist = offset >= head[block]
        block = block[hoist]
        positions[hoist] = loads[first[source[block]] + offset[hoist] - head[block]]
        return positions, grown


def compile_program(
    program: Program,
    mdes: MachineDescription,
    memo: BlockMemo | None = None,
) -> CompiledProgram:
    """Compile every block of ``program`` for ``mdes.processor``.

    ``memo`` is the program's :class:`BlockMemo`, shared across the
    processors it is compiled for; without one a private memo is made.
    """
    if memo is None:
        memo = BlockMemo(program)
    memo.check(program)
    processor = mdes.processor
    capacity = (
        speculation_capacity(processor.issue_width)
        if processor.has_speculation
        else 0
    )
    latencies = tuple(mdes.latencies[cls] for cls in OP_CLASSES)
    units = [processor.units[cls] for cls in OP_CLASSES]
    graphs = memo.graphs(capacity, latencies)
    done = schedule_graphs(graphs, units)
    bounds = graphs.ops.bounds
    compiled = CompiledProgram(program=program, mdes=mdes)
    blocks = compiled.blocks
    for key, blk, (operations, streams, successor), lo, hi, cycles, count, mix in zip(
        memo.keys,
        memo.blocks,
        memo.operations(capacity),
        bounds[:-1].tolist(),
        bounds[1:].tolist(),
        done.cycles,
        done.num_instructions,
        done.mixes,
    ):
        blocks[key] = CompiledBlock(
            blk.block_id,
            operations,
            BlockSchedule(done.ordinals[lo:hi], cycles, count, mix),
            streams,
            0,
            successor,
        )

    # Blocks that spill are rescheduled once with their spill ops
    # appended.
    spills = spill_ops(graphs, done.ordinals, register_budget(mdes))
    spilled = np.flatnonzero(spills)
    spilled = [
        (memo.keys[k], blocks[memo.keys[k]], count)
        for k, count in zip(spilled.tolist(), spills[spilled].tolist())
    ]
    if spilled:
        operations = [
            (*block.operations, *_spill_ops(count)) for _, block, count in spilled
        ]
        again = schedule_graphs(
            build_graphs(flat_ops(operations), latencies), units
        )
        at = np.cumsum([0, *map(len, operations)]).tolist()
        for i, (key, block, count) in enumerate(spilled):
            blocks[key] = CompiledBlock(
                block.block_id,
                operations[i],
                BlockSchedule(
                    again.ordinals[at[i]: at[i + 1]],
                    again.cycles[i],
                    again.num_instructions[i],
                    again.mixes[i],
                ),
                block.speculative_streams,
                count,
                block.predicted_successor,
            )
    return compiled


def _likely_successor(proc: Procedure, block_id: int) -> BasicBlock | None:
    """The block's most probable successor (the static prediction)."""
    edges = proc.successors(block_id)
    if not edges:
        return None
    likely = max(edges, key=lambda e: (e.probability, -e.dst))
    return proc.block(likely.dst)


def _speculative_loads(successor: BasicBlock) -> tuple[Operation, ...]:
    """Speculative copies of ``successor``'s loads, in program order."""
    return tuple(
        Operation(
            op.opclass,
            dests=op.dests,
            srcs=op.srcs,
            is_load=True,
            stream=op.stream,
            speculative=True,
        )
        for op in successor.operations
        if op.is_load
    )


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
