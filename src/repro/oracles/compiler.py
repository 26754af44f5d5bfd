"""The per-block compiler: one dependence graph, list schedule and spill
sweep per block, in plain Python.

:func:`compile_program` compiles each block on its own, as the compiler
did before it scheduled every block of a program in one array pass
(:mod:`repro.vliwcomp.compile`).  Its parts are the references of the
array kernels:

* :func:`build_dependence_graph` — one block's scheduling DAG, edge by
  edge (checks :func:`repro.vliwcomp.depgraph.build_graphs`);
* :func:`list_schedule` / :func:`schedule_block` — cycle-driven list
  scheduling of one block (checks
  :func:`repro.vliwcomp.scheduler.schedule_graphs`);
* :func:`estimate_spills` — one block's live-range sweep (checks
  :func:`repro.vliwcomp.regalloc.spill_ops`).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, ScheduleError
from repro.isa.operations import (
    MIX_FIELD_BITS,
    OP_CLASSES,
    OpClass,
    Operation,
    make_load,
    make_store,
    pack_mix,
)
from repro.isa.program import BasicBlock, Program
from repro.machine.mdes import MachineDescription
from repro.vliwcomp.compile import (
    _SPILL_REG_BASE,
    CompiledBlock,
    _bounds,
    CompiledProgram,
    _likely_successor,
    speculation_capacity,
)
from repro.vliwcomp.regalloc import SPILL_STREAM, register_budget
from repro.vliwcomp.scheduler import BlockSchedule


@dataclass(frozen=True)
class DependenceGraph:
    """DAG over the operation indexes of one basic block, read-only.

    Op ``succ[i][k]`` may issue no earlier than ``issue(i) +
    delay[i][k]``; ``n_preds[j]`` counts the edges into op ``j``.
    ``height[i]`` is the critical-path height used as the
    list-scheduling priority.
    """

    n_ops: int
    succ: tuple[tuple[int, ...], ...]
    delay: tuple[tuple[int, ...], ...]
    n_preds: tuple[int, ...]
    height: tuple[int, ...]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Every edge as ``(i, j, delay)``, by source op."""
        for i, (succ, delay) in enumerate(zip(self.succ, self.delay)):
            for j, d in zip(succ, delay):
                yield i, j, d


_MEMORY = OpClass.MEMORY
_BRANCH = OpClass.BRANCH


def build_dependence_graph(
    operations: Sequence[Operation], mdes: MachineDescription
) -> DependenceGraph:
    """Build the scheduling DAG for one block's operation list."""
    n = len(operations)
    succ: list[list[int]] = [[] for _ in range(n)]
    delay: list[list[int]] = [[] for _ in range(n)]
    n_preds = [0] * n
    latency = [mdes.latencies[op.opclass] for op in operations]
    last_writer: dict[int, int] = {}
    readers_since_write: dict[int, list[int]] = {}
    last_mem_by_stream: dict[int, int] = {}

    for i, op in enumerate(operations):
        opclass = op.opclass
        # Each edge p -> i: op i may issue no earlier than issue(p) + d.
        for src in op.srcs:
            producer = last_writer.get(src)
            if producer is not None:
                succ[producer].append(i)
                delay[producer].append(latency[producer])
                n_preds[i] += 1
            readers_since_write.setdefault(src, []).append(i)
        for dst in op.dests:
            writer = last_writer.get(dst)
            if writer is not None:
                succ[writer].append(i)
                delay[writer].append(1)  # WAW
                n_preds[i] += 1
            for reader in readers_since_write.get(dst, ()):
                if reader != i:
                    succ[reader].append(i)
                    delay[reader].append(0)  # WAR: same cycle legal
                    n_preds[i] += 1
            last_writer[dst] = i
            readers_since_write[dst] = []
        if opclass is _MEMORY:
            prev = last_mem_by_stream.get(op.stream)
            if prev is not None:
                # Keep same-stream memory operations ordered (one cycle).
                succ[prev].append(i)
                delay[prev].append(1)
                n_preds[i] += 1
            last_mem_by_stream[op.stream] = i
        if opclass is _BRANCH:
            # The branch ends the block: every earlier op must issue no
            # later than the branch's cycle.
            for earlier in range(i):
                succ[earlier].append(i)
                delay[earlier].append(0)
            n_preds[i] += i

    # Critical-path heights by a reverse sweep: operation indexes are
    # already topologically ordered (edges only go forward in the list).
    height = [0] * n
    for i in range(n - 1, -1, -1):
        height[i] = max(
            [latency[i], *(d + height[j] for j, d in zip(succ[i], delay[i]))]
        )
    return DependenceGraph(
        n_ops=n,
        succ=tuple(map(tuple, succ)),
        delay=tuple(map(tuple, delay)),
        n_preds=tuple(n_preds),
        height=tuple(height),
    )


def schedule_from_instructions(
    n_ops: int,
    instructions: Sequence[Sequence[int]],
    cycles: int,
    mix: dict[int, int],
) -> BlockSchedule:
    """The :class:`BlockSchedule` whose instructions issue ``instructions``."""
    ordinals = np.zeros(n_ops, dtype=np.int64)
    for ordinal, instr in enumerate(instructions):
        ordinals[list(instr)] = ordinal
    return BlockSchedule(ordinals, cycles, len(instructions), mix)


def schedule_block(
    operations: list[Operation], mdes: MachineDescription
) -> BlockSchedule:
    """List-schedule ``operations`` onto ``mdes.processor``."""
    return list_schedule(
        build_dependence_graph(operations, mdes),
        [OP_CLASSES.index(op.opclass) for op in operations],
        [mdes.processor.units[cls] for cls in OP_CLASSES],
    )


def list_schedule(
    graph: DependenceGraph, unit_of: Sequence[int], units: Sequence[int]
) -> BlockSchedule:
    """List-schedule a block given as its graph and per-op unit classes.

    ``unit_of[i]`` is op ``i``'s class as an index into
    :data:`OP_CLASSES`; ``units`` holds the unit count of each class.
    Raises :class:`ScheduleError` if no progress can be made.
    """
    if max(units) >> MIX_FIELD_BITS:
        raise ScheduleError(
            f"unit counts {tuple(units)} do not fit an instruction mix "
            f"({MIX_FIELD_BITS} bits per class)"
        )
    n = graph.n_ops
    if not n:
        return schedule_from_instructions(0, (), 0, {})
    height = graph.height
    # Ops in priority order (highest critical path first, index breaking
    # ties: the sort is stable); the waiting list holds positions in
    # this order, kept sorted.
    order = sorted(range(n), key=height.__getitem__, reverse=True)
    rank = [0] * n
    for position, i in enumerate(order):
        rank[i] = position
    # An op waits until every predecessor has issued in an earlier
    # cycle; it is then ready once the edge delays have elapsed.
    unissued_preds = list(graph.n_preds)
    earliest = [0] * n
    waiting = sorted(rank[i] for i in range(n) if not unissued_preds[i])
    instructions: list[tuple[int, ...]] = []
    mix: dict[int, int] = {}
    cycle = 0
    last_issue = 0
    max_cycles = 4 * (n + max(height, default=1)) + 16
    remaining = n

    while remaining:
        if cycle > max_cycles or not waiting:
            raise ScheduleError(
                f"scheduler exceeded {max_cycles} cycles for a "
                f"{n}-operation block; dependence graph is inconsistent"
            )
        ready = [0] * len(units)
        issued: list[int] = []
        still_waiting: list[int] = []
        for position in waiting:
            i = order[position]
            if earliest[i] > cycle:
                still_waiting.append(position)
                continue
            ready[unit_of[i]] += 1
            if ready[unit_of[i]] <= units[unit_of[i]]:
                issued.append(i)
            else:
                still_waiting.append(position)
        if issued:
            issued.sort()
            for i in issued:
                for succ, d in zip(graph.succ[i], graph.delay[i]):
                    earliest[succ] = max(earliest[succ], cycle + d)
                    unissued_preds[succ] -= 1
                    if not unissued_preds[succ]:
                        insort(still_waiting, rank[succ])
            instructions.append(tuple(issued))
            remaining -= len(issued)
            counts = [0] * len(units)
            for i in issued:
                counts[unit_of[i]] += 1
            key = pack_mix(counts)
            mix[key] = mix.get(key, 0) + 1
            last_issue = cycle
        waiting = still_waiting
        cycle += 1

    return schedule_from_instructions(n, instructions, last_issue + 1, mix)


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
    def_cycle: dict[int, int] = {}
    last_use_cycle: dict[int, int] = {}
    for cycle, instr in enumerate(schedule.instructions):
        for index in instr:
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
        max_live = max(max_live, live)

    excess = max(0, max_live - register_budget(mdes))
    return SpillEstimate(
        max_live=max_live, spill_stores=excess, spill_loads=excess
    )


def compile_program(program: Program, mdes: MachineDescription) -> CompiledProgram:
    """Compile every block of ``program`` for ``mdes.processor``, one
    block at a time: hoist, schedule, estimate spills, and reschedule
    with the spill ops appended when there are any."""
    processor = mdes.processor
    capacity = (
        speculation_capacity(processor.issue_width)
        if processor.has_speculation
        else 0
    )
    blocks: dict[tuple[str, int], CompiledBlock] = {}
    for proc in program.procedures.values():
        for blk in proc.blocks:
            operations = tuple(blk.operations)
            streams: tuple[int, ...] = ()
            predicted = None
            successor = _likely_successor(proc, blk.block_id) if capacity else None
            if successor is not None:
                loads = _speculative_loads(successor)[:capacity]
                if loads:
                    operations = (*operations, *loads)
                    streams = tuple(op.stream for op in loads)
                    predicted = successor.block_id
            schedule = schedule_block(list(operations), mdes)
            spills = estimate_spills(operations, schedule, mdes).total_ops
            if spills:
                operations = (*operations, *_spill_ops(spills))
                schedule = schedule_block(list(operations), mdes)
            blocks[(proc.name, blk.block_id)] = CompiledBlock(
                block_id=blk.block_id,
                operations=operations,
                schedule=schedule,
                speculative_streams=streams,
                spill_ops=spills,
                predicted_successor=predicted,
            )
    return compiled_from_blocks(program, mdes, blocks)


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


def compiled_from_blocks(
    program: Program,
    mdes: MachineDescription,
    blocks: dict[tuple[str, int], CompiledBlock],
) -> CompiledProgram:
    """The arrays of compiled blocks given one by one, in the mapping's
    order; a predicted successor must be among them."""
    keys = list(blocks)
    index = {key: k for k, key in enumerate(keys)}
    records = list(blocks.values())
    schedules = [block.schedule for block in records]
    mixes = [sorted(schedule.mix.items()) for schedule in schedules]
    try:
        predicted = [
            -1 if block.predicted_successor is None
            else index[(name, block.predicted_successor)]
            for (name, _), block in zip(keys, records)
        ]
    except KeyError as missing:
        raise ConfigurationError(
            f"predicted successor {missing} is not a compiled block"
        ) from None
    return CompiledProgram(
        program=program,
        mdes=mdes,
        keys=keys,
        index=index,
        op_bounds=_bounds([len(s.ordinals) for s in schedules]),
        ordinals=np.concatenate(
            [np.asarray(s.ordinals, dtype=np.int64) for s in schedules]
            or [np.zeros(0, dtype=np.int64)]
        ),
        cycles=_ints([s.cycles for s in schedules]),
        num_instructions=_ints([s.num_instructions for s in schedules]),
        spill_ops=_ints([block.spill_ops for block in records]),
        predicted=_ints(predicted),
        speculative=_ints(
            [s for block in records for s in block.speculative_streams]
        ),
        speculative_bounds=_bounds(
            [len(block.speculative_streams) for block in records]
        ),
        mix_block=np.repeat(
            np.arange(len(mixes), dtype=np.int64), [len(m) for m in mixes]
        ),
        mix_packed=np.array(
            [packed for mix in mixes for packed, _ in mix], dtype=np.uint64
        ),
        mix_count=_ints([count for mix in mixes for _, count in mix]),
        operations_of=[block.operations for block in records].__getitem__,
    )


def _ints(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.int64)
