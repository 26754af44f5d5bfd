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

Every compilation goes through a :class:`BlockMemo`, which schedules
each distinct operation list once per region of machines it is valid
for; a design-space exploration shares one memo across all of its
processors (see :class:`BlockMemo` for the region rule).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import le
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.isa.operations import OP_CLASSES, Operation, make_load, make_store
from repro.isa.program import BasicBlock, Procedure, Program
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.depgraph import DependenceGraph, build_dependence_graph
from repro.vliwcomp.regalloc import (
    SPILL_STREAM,
    bounded_spill_ops,
    register_budget,
)
from repro.vliwcomp.scheduler import BlockSchedule, list_schedule


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


#: A region of machines, flat: per coordinate (unit count per class,
#: then register budget) the lowest value it admits, then per coordinate
#: the highest.
Region = tuple[int, ...]

#: Upper end of a region coordinate that has none.
_UNBOUNDED = sys.maxsize

_CLASS_INDEX = {cls: index for index, cls in enumerate(OP_CLASSES)}


def _covers(region: Region, point: tuple[int, ...]) -> bool:
    return all(map(le, region, point)) and all(
        map(le, point, region[len(point):])
    )


class BlockEntry(NamedTuple):
    """One distinct operation list of a program and what the machines
    compiled so far have made of it.

    ``schedules`` pairs each schedule with the region of unit counts it
    holds for; ``compiled`` pairs each compiled block with the region of
    unit counts and register budgets it holds for.  An entry is never
    changed: a new result replaces it with a longer copy (``_replace``).
    """

    operations: tuple[Operation, ...]
    graph: DependenceGraph
    unit_of: tuple[int, ...]
    distinct_dests: int
    speculative_streams: tuple[int, ...]
    predicted_successor: int | None
    schedules: tuple[tuple[Region, BlockSchedule], ...] = ()
    compiled: tuple[tuple[Region, CompiledBlock], ...] = ()


class BlockMemo:
    """Compiled blocks of one :class:`Program`, shared across processors.

    An entry is keyed by (procedure, block id, hoisted-load count,
    latency table), which fixes a block's operation list within one
    program; spill code adds its op count to the key.  Each entry keeps
    the dependence graph and every schedule computed so far,
    tagged with the region of machines it is valid for:

    * a class is *binding* when, in some cycle, more of its ops were
      ready than it had units;
    * a schedule holds for every machine with the same unit count on
      each binding class and at least the peak ready count on every
      other class.  The ready set of a cycle depends only on earlier
      issue decisions; those match on binding classes because the units
      do, and on the other classes every ready op issues on both
      machines;
    * a compiled block also needs the same spill count: the same
      register budget when it spilled, else a budget of at least its
      peak live count (bounded by its distinct destinations).

    The memo serves the one program it was made for and refuses any
    other.
    """

    def __init__(self, program: Program):
        self.program = program
        #: Schedules computed (each lookup that no region covered).
        self.schedules_run = 0
        self._entries: dict[tuple, BlockEntry] = {}
        self._speculative: dict[
            tuple[str, int], tuple[tuple[Operation, ...], int | None]
        ] = {}

    def entries(self) -> list[BlockEntry]:
        """Every entry, one per distinct operation list."""
        return list(self._entries.values())

    def check(self, program: Program) -> None:
        """Refuse any program but the one the memo was made for."""
        if program is not self.program:
            raise ConfigurationError(
                f"block memo of program {self.program.name!r} cannot "
                f"compile program {program.name!r}"
            )

    def compile_block(
        self,
        proc: Procedure,
        blk: BasicBlock,
        mdes: MachineDescription,
        capacity: int,
        latencies: tuple[int, ...],
        point: tuple[int, ...],
    ) -> CompiledBlock:
        """``blk`` compiled for the machine at ``point`` (unit counts
        per class, then register budget)."""
        hoisted = 0
        if capacity:
            loads, predicted = self._hoistable_loads(proc, blk)
            hoisted = min(capacity, len(loads))
        key = (proc.name, blk.block_id, hoisted, latencies)
        entry = self._entries.get(key)
        if entry is None:
            if hoisted:
                loads = loads[:hoisted]
                entry = self._add(
                    key,
                    (*blk.operations, *loads),
                    mdes,
                    tuple(op.stream for op in loads),
                    predicted,
                )
            else:
                entry = self._add(key, tuple(blk.operations), mdes)
        for region, block in entry.compiled:
            if _covers(region, point):
                return block
        return self._compile(key, entry, mdes, point)

    def _hoistable_loads(
        self, proc: Procedure, blk: BasicBlock
    ) -> tuple[tuple[Operation, ...], int | None]:
        """Speculative copies of the loads ``blk`` could hoist with
        unbounded capacity, from its likeliest successor, and that
        successor's id (the static prediction; None without one).  Made
        once per block: a machine that hoists ``k`` takes the first
        ``k``."""
        name = (proc.name, blk.block_id)
        found = self._speculative.get(name)
        if found is None:
            successor = _likely_successor(proc, blk.block_id)
            if successor is None:
                found = (), None
            else:
                found = _speculative_loads(successor), successor.block_id
            self._speculative[name] = found
        return found

    def _add(
        self,
        key: tuple,
        operations: tuple[Operation, ...],
        mdes: MachineDescription,
        speculative_streams: tuple[int, ...] = (),
        predicted_successor: int | None = None,
    ) -> BlockEntry:
        entry = BlockEntry(
            operations=operations,
            graph=build_dependence_graph(operations, mdes),
            unit_of=tuple(_CLASS_INDEX[op.opclass] for op in operations),
            distinct_dests=len({d for op in operations for d in op.dests}),
            speculative_streams=speculative_streams,
            predicted_successor=predicted_successor,
        )
        self._entries[key] = entry
        return entry

    def _schedule(
        self, key: tuple, units: tuple[int, ...]
    ) -> tuple[BlockSchedule, Region]:
        entry = self._entries[key]
        for region, schedule in entry.schedules:
            if _covers(region, units):
                return schedule, region
        schedule, peak = list_schedule(entry.graph, entry.unit_of, units)
        self.schedules_run += 1
        region = (
            *(u if p > u else p for p, u in zip(peak, units)),
            *(u if p > u else _UNBOUNDED for p, u in zip(peak, units)),
        )
        self._entries[key] = entry._replace(
            schedules=(*entry.schedules, (region, schedule))
        )
        return schedule, region

    def _compile(
        self,
        key: tuple,
        entry: BlockEntry,
        mdes: MachineDescription,
        point: tuple[int, ...],
    ) -> CompiledBlock:
        units, budget = point[:-1], point[-1]
        n_units = len(units)
        schedule, region = self._schedule(key, units)
        low, high = region[:n_units], region[n_units:]
        spills, live = bounded_spill_ops(
            entry.operations, schedule, mdes, entry.distinct_dests
        )
        operations = entry.operations
        if spills:
            spill_key = (*key, spills)
            if spill_key not in self._entries:
                self._add(spill_key, (*operations, *_spill_ops(spills)), mdes)
            schedule, spilled = self._schedule(spill_key, units)
            operations = self._entries[spill_key].operations
            region = (
                *map(max, low, spilled[:n_units]),
                budget,
                *map(min, high, spilled[n_units:]),
                budget,
            )
        else:
            region = (*low, live, *high, _UNBOUNDED)
        block = CompiledBlock(
            block_id=key[1],
            operations=operations,
            schedule=schedule,
            speculative_streams=entry.speculative_streams,
            spill_ops=spills,
            predicted_successor=entry.predicted_successor,
        )
        entry = self._entries[key]
        self._entries[key] = entry._replace(
            compiled=(*entry.compiled, (region, block))
        )
        return block


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
    units = tuple(processor.units[cls] for cls in OP_CLASSES)
    point = (*units, register_budget(mdes))
    compiled = CompiledProgram(program=program, mdes=mdes)
    for proc in program.procedures.values():
        for blk in proc.blocks:
            compiled.blocks[(proc.name, blk.block_id)] = memo.compile_block(
                proc, blk, mdes, capacity, latencies, point
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
