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
references) and the hierarchy evaluator (processor cycles).  It is kept
as per-block arrays in layout order, from the scheduler through the
linker; a :class:`CompiledBlock` record is made only when one is asked
for.

Every compilation goes through a :class:`BlockMemo`, the program's
operations as flat arrays and its dependence graphs; a design-space
exploration shares one across all of its processors.  Each processor
then takes one array pass: one lockstep schedule of every block, the
spill estimate, and one more lockstep schedule of the blocks that
spill.  The per-block compiler this replaces is the oracle
:func:`repro.oracles.compiler.compile_program`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.operations import LOAD, OP_CLASSES, STORE, FlatOps, Operation
from repro.isa.program import BasicBlock, Procedure, Program
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.depgraph import _MEMORY, BlockGraphs, build_graphs
from repro.vliwcomp.regalloc import SPILL_STREAM, register_budget, spill_ops
from repro.vliwcomp.scheduler import BlockSchedule, runs_mix, schedule_graphs


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


@dataclass(eq=False)
class CompiledProgram:
    """A whole program compiled for one processor, as per-block arrays.

    Block ``k`` is ``keys[k]`` (layout order; ``index`` maps each key
    back to its ``k``).  Its ops ``op_bounds[k]:op_bounds[k + 1]``
    issue in the instructions ``ordinals`` holds for them; it takes
    ``cycles[k]`` issue cycles and ``num_instructions[k]`` instructions,
    has ``spill_ops[k]`` spill ops appended, and the loads it hoisted
    from its predicted successor, block ``predicted[k]`` (-1 for none),
    read the streams ``speculative[speculative_bounds[k]:
    speculative_bounds[k + 1]]``.  The mixes are runs: ``mix_count[r]``
    instructions of block ``mix_block[r]`` issue packed mix
    ``mix_packed[r]``, ordered by block.  :class:`CompiledBlock` records
    are made on demand by :meth:`block` and :attr:`blocks`, with the
    operations from ``operations_of(k)``.
    """

    program: Program
    mdes: MachineDescription
    keys: list[tuple[str, int]]
    index: dict[tuple[str, int], int]
    op_bounds: np.ndarray
    ordinals: np.ndarray
    cycles: np.ndarray
    num_instructions: np.ndarray
    spill_ops: np.ndarray
    predicted: np.ndarray
    speculative: np.ndarray
    speculative_bounds: np.ndarray
    mix_block: np.ndarray
    mix_packed: np.ndarray
    mix_count: np.ndarray
    operations_of: Callable[[int], tuple[Operation, ...]]

    def block(self, proc_name: str, block_id: int) -> CompiledBlock:
        """The compiled form of one basic block, made on demand."""
        return self.block_at(self.index[(proc_name, block_id)])

    def block_at(self, k: int) -> CompiledBlock:
        """The compiled form of block ``k`` in layout order."""
        lo, hi = self.op_bounds[k: k + 2].tolist()
        first, last = self.speculative_bounds[k: k + 2].tolist()
        predicted = int(self.predicted[k])
        return CompiledBlock(
            block_id=self.keys[k][1],
            operations=self.operations_of(k),
            schedule=BlockSchedule(
                self.ordinals[lo:hi],
                int(self.cycles[k]),
                int(self.num_instructions[k]),
                runs_mix(self.mix_block, self.mix_packed, self.mix_count, k),
            ),
            speculative_streams=tuple(self.speculative[first:last].tolist()),
            spill_ops=int(self.spill_ops[k]),
            predicted_successor=(
                None if predicted < 0 else self.keys[predicted][1]
            ),
        )

    @property
    def blocks(self) -> dict[tuple[str, int], CompiledBlock]:
        """Every block's compiled form by key, in layout order, made on
        demand (a new dict on each call)."""
        return {key: self.block_at(k) for k, key in enumerate(self.keys)}

    @property
    def processor_name(self) -> str:
        return self.mdes.processor.name

    def total_instructions(self) -> int:
        """VLIW instructions across all blocks (static count)."""
        return int(self.num_instructions.sum())

    def total_operations(self) -> int:
        """Operations across all blocks, including spill/speculative ones."""
        return len(self.ordinals)


def _bounds(sizes) -> np.ndarray:
    """Row bounds of consecutive groups of the given sizes."""
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def speculation_capacity(issue_width: int) -> int:
    """Speculative loads hoisted per block as a function of issue width.

    The reference-class 4-wide machine speculates nothing extra; headroom
    above that buys roughly one hoisted load per two extra issue slots
    (4 -> 0, 5 -> 1, 8 -> 2, 9 -> 3, 14 -> 5), matching the paper's
    qualitative claim that wider processors "tend to speculate more
    often".
    """
    return max(0, (issue_width - 4 + 1) // 2)


class Hoisting(NamedTuple):
    """Every block's operations with up to one capacity of hoisted
    loads: the ops, and per block the hoisted loads' streams
    (``streams[stream_bounds[k]:stream_bounds[k + 1]]``) and the block
    they came from (``predicted[k]``, -1 when nothing was hoisted)."""

    ops: FlatOps
    streams: np.ndarray
    stream_bounds: np.ndarray
    predicted: np.ndarray


class BlockMemo:
    """One :class:`Program`'s compile inputs, shared across the
    processors it is compiled for.

    It reads the program's operations from its flat arrays
    (:attr:`Program.ops <repro.isa.program.Program.ops>`).  Hoisted
    loads are appended ops, so a hoisted-load capacity fixes every
    block's operations: per capacity the memo keeps them as a
    :class:`Hoisting`, and per (capacity, latency table) one dependence
    graph of every block.  The memo serves the one program it was made
    for and refuses any other.
    """

    def __init__(self, program: Program):
        self.program = program
        self._graphs: dict[tuple[int, tuple[int, ...]], BlockGraphs] = {}
        self._hoisting: dict[int, Hoisting] = {}

    @cached_property
    def keys(self) -> list[tuple[str, int]]:
        """Each block's (procedure name, block id), shared with the
        program's block index when no key repeats."""
        index = self.program.block_index()
        if len(index) == self.program.num_blocks:
            return list(index)
        return [(name, blk.block_id) for name, blk in self.program.all_blocks()]

    def check(self, program: Program) -> None:
        """Refuse any program but the one the memo was made for."""
        if program is not self.program:
            raise ConfigurationError(
                f"block memo of program {self.program.name!r} cannot "
                f"compile program {program.name!r}"
            )

    @cached_property
    def successor(self) -> np.ndarray:
        """Per block, its likeliest successor's position (-1 for none)."""
        blocks = self.program.all_blocks()
        position = {id(blk): k for k, (_, blk) in enumerate(blocks)}
        likely = [
            _likely_successor(self.program.procedure(name), blk.block_id)
            for name, blk in blocks
        ]
        return np.array(
            [-1 if succ is None else position[id(succ)] for succ in likely],
            dtype=np.int64,
        )

    def operations(
        self, k: int, capacity: int, spills: int
    ) -> tuple[Operation, ...]:
        """Block ``k``'s operations with up to ``capacity`` hoisted
        loads, marked speculative, and ``spills`` spill ops appended,
        made from the arrays."""
        ops = self.hoisting(capacity).ops
        head, grown = self.program.ops.bounds[k: k + 2], ops.bounds[k: k + 2]
        hoisted = range(head[1] - head[0], grown[1] - grown[0])
        if spills:
            ops, k = _with_spills(ops, np.array([k]), np.array([spills])), 0
        return ops.operations(k, speculative=hoisted)

    def hoisting(self, capacity: int) -> Hoisting:
        """Every block's operations with up to ``capacity`` hoisted
        loads of its likeliest successor."""
        found = self._hoisting.get(capacity)
        if found is None:
            found = self._hoisting[capacity] = self._hoist(capacity)
        return found

    def graphs(self, capacity: int, latencies: tuple[int, ...]) -> BlockGraphs:
        """Dependence graphs of every block with up to ``capacity``
        hoisted loads, for one latency table."""
        key = (capacity, latencies)
        if key not in self._graphs:
            self._graphs[key] = build_graphs(self.hoisting(capacity).ops, latencies)
        return self._graphs[key]

    def _hoist(self, capacity: int) -> Hoisting:
        """Each block's ops followed by the first ``capacity`` loads of
        its successor."""
        ops = self.program.ops
        bounds = ops.bounds
        n_blocks = len(bounds) - 1
        if not capacity:
            return Hoisting(
                ops,
                np.zeros(0, dtype=np.int64),
                np.zeros(n_blocks + 1, dtype=np.int64),
                np.full(n_blocks, -1, dtype=np.int64),
            )
        loads = np.flatnonzero(ops.kind == LOAD)
        first = np.searchsorted(loads, bounds)
        source = self.successor
        head = np.diff(bounds)
        hoisted = np.where(
            source < 0, 0, np.minimum(np.diff(first)[source], capacity)
        )
        grown = _bounds(head + hoisted)
        block = np.repeat(np.arange(n_blocks), head + hoisted)
        offset = np.arange(grown[-1]) - grown[block]
        positions = bounds[block] + offset
        hoist = offset >= head[block]
        block = block[hoist]
        positions[hoist] = loads[first[source[block]] + offset[hoist] - head[block]]
        return Hoisting(
            ops.take(positions, grown),
            ops.stream[positions[hoist]],
            _bounds(hoisted),
            np.where(hoisted > 0, source, -1),
        )


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
    hoisting = memo.hoisting(capacity)
    graphs = memo.graphs(capacity, latencies)
    done = schedule_graphs(graphs, units)
    spills = spill_ops(graphs, done.ordinals, register_budget(mdes))
    bounds = graphs.ops.bounds
    mixes = (done.mix_block, done.mix_packed, done.mix_count)
    spilled = np.flatnonzero(spills)
    if len(spilled):
        # Blocks that spill are rescheduled once with their spill ops
        # appended.
        grown = _with_spills(graphs.ops, spilled, spills[spilled])
        again = schedule_graphs(build_graphs(grown, latencies), units)
        bounds, ordinals = _splice(
            bounds, done.ordinals, spilled, grown.bounds, again.ordinals
        )
        cycles = done.cycles.copy()
        cycles[spilled] = again.cycles
        num_instructions = done.num_instructions.copy()
        num_instructions[spilled] = again.num_instructions
        kept = spills[done.mix_block] == 0
        mix_block = np.concatenate((done.mix_block[kept], spilled[again.mix_block]))
        order = np.argsort(mix_block, kind="stable")
        mixes = (
            mix_block[order],
            np.concatenate((done.mix_packed[kept], again.mix_packed))[order],
            np.concatenate((done.mix_count[kept], again.mix_count))[order],
        )
    else:
        ordinals, cycles = done.ordinals, done.cycles
        num_instructions = done.num_instructions
    return CompiledProgram(
        program=program,
        mdes=mdes,
        keys=memo.keys,
        index=program.block_index(),
        op_bounds=bounds,
        ordinals=ordinals,
        cycles=cycles,
        num_instructions=num_instructions,
        spill_ops=spills,
        predicted=hoisting.predicted,
        speculative=hoisting.streams,
        speculative_bounds=hoisting.stream_bounds,
        mix_block=mixes[0],
        mix_packed=mixes[1],
        mix_count=mixes[2],
        operations_of=lambda k: memo.operations(k, capacity, int(spills[k])),
    )


def _with_spills(ops: FlatOps, blocks: np.ndarray, counts: np.ndarray) -> FlatOps:
    """The ops of ``blocks``, each followed by its count of spill ops,
    as flat arrays: alternating stores and loads of spill registers on
    the spill stream, a store first."""
    head = np.diff(ops.bounds)[blocks]
    grown = _bounds(head + counts)
    block = np.repeat(np.arange(len(blocks)), head + counts)
    offset = np.arange(grown[-1]) - grown[block]
    spill = offset >= head[block]
    positions = ops.bounds[blocks][block] + offset
    positions[spill] = 0
    i = offset[spill] - head[block[spill]]
    register = _SPILL_REG_BASE + 2 * i
    store = i % 2 == 0
    taken = ops.take(positions, grown)
    opclass = taken.opclass
    opclass[spill] = _MEMORY
    stream = taken.stream
    stream[spill] = SPILL_STREAM
    kind = taken.kind
    kind[spill] = np.where(store, STORE, LOAD)
    dests = _widened(taken.dests, 1)
    dests[spill] = -1
    dests[spill, 0] = np.where(store, -1, register)
    srcs = _widened(taken.srcs, 2)
    srcs[spill] = -1
    srcs[spill, 0] = np.where(store, register, register + 1)
    srcs[spill, 1] = np.where(store, register + 1, -1)
    return FlatOps(opclass, stream, kind, dests, srcs, grown)


def _widened(registers: np.ndarray, width: int) -> np.ndarray:
    """A padded register table with at least ``width`` columns."""
    if registers.shape[1] >= width:
        return registers
    out = np.full((len(registers), width), -1, dtype=np.int64)
    out[:, : registers.shape[1]] = registers
    return out


def _splice(
    bounds: np.ndarray,
    ordinals: np.ndarray,
    blocks: np.ndarray,
    block_bounds: np.ndarray,
    block_ordinals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-op ordinals with the rows of ``blocks`` replaced by theirs
    (``block_ordinals`` grouped by ``block_bounds``), and the new
    bounds."""
    sizes = np.diff(bounds)
    kept = np.ones(len(sizes), dtype=bool)
    kept[blocks] = False
    sizes[blocks] = np.diff(block_bounds)
    grown = _bounds(sizes)
    out = np.empty(grown[-1], dtype=ordinals.dtype)
    old = np.repeat(kept, np.diff(bounds))
    shift = np.repeat(grown[:-1] - bounds[:-1], np.diff(bounds))
    out[(np.arange(len(ordinals)) + shift)[old]] = ordinals[old]
    to = np.repeat(grown[blocks] - block_bounds[:-1], np.diff(block_bounds))
    out[np.arange(len(block_ordinals)) + to] = block_ordinals
    return grown, out


def _likely_successor(proc: Procedure, block_id: int) -> BasicBlock | None:
    """The block's most probable successor (the static prediction)."""
    edges = proc.successors(block_id)
    if not edges:
        return None
    likely = max(edges, key=lambda e: (e.probability, -e.dst))
    return proc.block(likely.dst)


#: Virtual-register base for spill temporaries, far above any register the
#: workload generator emits, so spill ops add no false dependences beyond
#: their own same-stream ordering.
_SPILL_REG_BASE = 1_000_000
