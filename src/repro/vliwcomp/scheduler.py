"""Resource-constrained list scheduling of every block at once.

Classic cycle-driven list scheduling: at each cycle, ready operations
(all predecessors issued early enough) are chosen greedily by
critical-path height, subject to the per-class function-unit counts of
the target processor.  :func:`schedule_graphs` runs it on all blocks of
a :class:`~repro.vliwcomp.depgraph.BlockGraphs` in lockstep: one loop
over global cycles, each a few array steps that rank the ready ops
within (block, class) and issue up to the unit count.  Blocks are
independent, so each one gets exactly the schedule it would get alone
(the per-block scheduler is the oracle
:func:`repro.oracles.compiler.list_schedule`).

A schedule records each op's instruction ordinal, the block's
issue-cycle count (used for processor-cycle estimation) and its
instruction *mix*: how many instructions issue each per-class op-count
vector, the quantity the instruction-format assembler encodes.  For
every block at once these are arrays (:class:`Schedules`, the mixes as
(block, packed mix, count) runs); :class:`BlockSchedule` is one block's
schedule, made on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.isa.operations import MIX_FIELD_BITS, OP_CLASSES, pack_mix
from repro.vliwcomp.depgraph import BlockGraphs


@dataclass(frozen=True, slots=True, eq=False)
class BlockSchedule:
    """Schedule of one block on one processor.

    ``ordinals[i]`` is the VLIW instruction that issues op ``i``;
    instructions count only the cycles that issue at least one op.
    ``cycles`` is the total issue-cycle span including stall (empty)
    cycles; ``cycles >= num_instructions`` and the gap is the
    stall-cycle count the instruction format's multi-no-op bits must
    cover.

    ``mix`` maps each distinct packed per-class op count of an
    instruction (see :func:`~repro.isa.operations.pack_mix`) to the
    number of instructions that issue it.  Schedules are equal when
    their ops issue alike; nothing here is ever changed.
    """

    ordinals: np.ndarray
    cycles: int
    num_instructions: int
    mix: dict[int, int]

    @property
    def instructions(self) -> tuple[tuple[int, ...], ...]:
        """Per instruction, the indexes of the ops it issues."""
        issued: list[list[int]] = [[] for _ in range(self.num_instructions)]
        for index, ordinal in enumerate(self.ordinals.tolist()):
            issued[ordinal].append(index)
        return tuple(map(tuple, issued))

    @property
    def stall_cycles(self) -> int:
        return self.cycles - self.num_instructions

    def ops_per_instruction(self) -> float:
        """Average operations packed per issued instruction."""
        if not self.num_instructions:
            return 0.0
        return len(self.ordinals) / self.num_instructions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSchedule):
            return NotImplemented
        return self.cycles == other.cycles and np.array_equal(
            self.ordinals, other.ordinals
        )

    def __hash__(self) -> int:
        return hash((self.cycles, self.ordinals.tobytes()))


class Schedules(NamedTuple):
    """Schedules of every block of one graph: each op's instruction
    ordinal within its block, per block the issue cycles and the
    instruction count, and the mixes as runs: ``mix_count[r]``
    instructions of block ``mix_block[r]`` issue packed mix
    ``mix_packed[r]``, ordered by block, then mix."""

    ordinals: np.ndarray
    cycles: np.ndarray
    num_instructions: np.ndarray
    mix_block: np.ndarray
    mix_packed: np.ndarray
    mix_count: np.ndarray


def runs_mix(
    mix_block: np.ndarray,
    mix_packed: np.ndarray,
    mix_count: np.ndarray,
    block: int,
) -> dict[int, int]:
    """One block's mix, packed mix to instruction count, from mix runs
    ordered by block."""
    lo, hi = np.searchsorted(mix_block, (block, block + 1))
    return dict(zip(mix_packed[lo:hi].tolist(), mix_count[lo:hi].tolist()))


#: The packed mix of one op of each class, indexed like ``OP_CLASSES``.
_MIX_UNIT = np.array(
    [pack_mix([0] * index + [1]) for index in range(len(OP_CLASSES))],
    dtype=np.uint64,
)


def instruction_mixes(
    opclass: np.ndarray, instruction: np.ndarray, n_instructions: int
) -> np.ndarray:
    """Packed mix (:func:`~repro.isa.operations.pack_mix`) of each
    instruction, given every op's class index and instruction.  Packed
    in ``uint64``: the last class fills the top bits."""
    mixes = np.zeros(n_instructions, dtype=np.uint64)
    np.add.at(mixes, instruction, _MIX_UNIT[opclass])
    return mixes


def schedule_graphs(graphs: BlockGraphs, units: Sequence[int]) -> Schedules:
    """List-schedule every block of ``graphs``; ``units`` holds the unit
    count of each class, indexed like :data:`OP_CLASSES`.

    Raises :class:`ScheduleError` if a unit count does not fit an
    instruction mix, or if no progress can be made (which would indicate
    a dependence-graph bug, since every processor has at least one unit
    per class).
    """
    if max(units) >> MIX_FIELD_BITS:
        raise ScheduleError(
            f"unit counts {tuple(units)} do not fit an instruction mix "
            f"({MIX_FIELD_BITS} bits per class)"
        )
    n = graphs.n_ops
    opclass = graphs.ops.opclass
    group = graphs.block * len(OP_CLASSES) + opclass
    # Unissued ops in priority order: by (block, class), then highest
    # critical path first, index breaking ties: one stable sort of one
    # key.
    hmax = int(graphs.height.max(initial=0))
    priority = group * (hmax + 1) + (hmax - graphs.height)
    pending = np.argsort(priority, kind="stable")
    limit = np.asarray(units, dtype=np.int64)[opclass]
    succ_bounds, succ_of = graphs.succ_bounds, graphs.succ
    out_degree = np.diff(succ_bounds)
    left = graphs.n_preds.copy()
    # An op may issue once every predecessor has issued in an earlier
    # cycle and the edge delays have elapsed: from cycle ``ready``, and
    # ``eligible`` holds that cycle once no predecessor is left.  (Ops
    # freed in a cycle are first considered in the next one.)
    ready = np.zeros(n, dtype=np.int64)
    never = np.iinfo(np.int64).max
    eligible = np.where(left == 0, 0, never)
    issue = np.full(n, -1, dtype=np.int64)
    budget = 4 * (int(np.diff(graphs.ops.bounds).max(initial=0))
                  + int(graphs.height.max(initial=1))) + 16
    cycle = 0
    while len(pending):
        when = eligible[pending]
        candidates = np.flatnonzero(when <= cycle)
        if not len(candidates):
            cycle = int(when.min())
            if cycle > budget:
                raise ScheduleError(
                    f"scheduler exceeded {budget} cycles; dependence "
                    "graph is inconsistent"
                )
            continue
        ops = pending[candidates]
        # Rank each candidate within its (block, class) group.
        grouped = group[ops]
        rank = np.arange(len(ops)) - np.searchsorted(grouped, grouped)
        issued = ops[rank < limit[ops]]
        issue[issued] = cycle
        count = out_degree[issued]
        edges = np.repeat(succ_bounds[issued] - np.cumsum(count) + count, count)
        edges += np.arange(len(edges))
        succ = succ_of[edges]
        np.maximum.at(ready, succ, cycle + graphs.delay[edges])
        np.subtract.at(left, succ, 1)
        freed = succ[left[succ] == 0]
        eligible[freed] = ready[freed]
        pending = pending[issue[pending] < 0]
        cycle += 1
    return _tabulate(graphs, issue)


def _tabulate(graphs: BlockGraphs, issue: np.ndarray) -> Schedules:
    """Per-op instruction ordinals and per-block cycles, instruction
    counts and mixes, from every op's issue cycle."""
    n_blocks = len(graphs.distinct_dests)
    block = graphs.block
    cycles = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(cycles, block, issue + 1)
    # One instruction per (block, issue cycle) pair.
    span = int(cycles.max(initial=0)) + 1
    slots, instruction = np.unique(block * span + issue, return_inverse=True)
    slot_block = slots // span
    first = np.searchsorted(slot_block, np.arange(n_blocks))
    ordinals = instruction - first[block]
    mixes = instruction_mixes(graphs.ops.opclass, instruction, len(slots))
    # Count each block's instructions per distinct mix.
    order = np.lexsort((mixes, slot_block))
    slot_block, mixes = slot_block[order], mixes[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (slot_block[1:] != slot_block[:-1]) | (mixes[1:] != mixes[:-1])
    runs = np.flatnonzero(new)
    return Schedules(
        ordinals=ordinals,
        cycles=cycles,
        num_instructions=np.bincount(slot_block, minlength=n_blocks),
        mix_block=slot_block[runs],
        mix_packed=mixes[runs],
        mix_count=np.diff(runs, append=len(order)),
    )
