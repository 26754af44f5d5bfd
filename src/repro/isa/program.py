"""Basic blocks, procedures and whole programs.

A :class:`Program` is the unit handed to the compiler substrate
(:mod:`repro.vliwcomp`), the instruction-format/assembler/linker chain
(:mod:`repro.iformat`) and the emulator (:mod:`repro.trace.emulator`).

The control-flow representation is deliberately simple: each basic block
ends in an implicit two-way branch (or fall-through), and procedures may
call other procedures from designated call sites.  This is rich enough to
drive realistic block-visit sequences, which is all the memory-hierarchy
evaluation in the paper consumes.  A program's operations are flat
arrays (:attr:`Program.ops`); a block's :class:`Operation` records are
a view of them, made on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ProgramStructureError
from repro.isa.operations import FlatOps, Operation, flat_ops


@dataclass(frozen=True)
class ControlFlowEdge:
    """A directed edge in a procedure's control-flow graph.

    ``probability`` is the branch bias used by the emulator when choosing
    a successor; the probabilities of a block's outgoing edges must sum
    to 1 (validated in :func:`repro.isa.validate.validate_program`).
    """

    src: int
    dst: int
    probability: float


class BasicBlock:
    """A straight-line sequence of operations.

    ``block_id`` is unique within the procedure.  ``calls`` lists the names
    of procedures invoked when this block executes (in order); calls happen
    conceptually at the end of the block, before the terminating branch.

    The operations are block ``row`` of the flat arrays ``ops``: the
    blocks of a generated program are the rows of one
    :class:`~repro.isa.operations.FlatOps`, in layout order.  A block
    given an :class:`Operation` list flattens it once into arrays of
    its own.  :attr:`operations` is a read-only view of the arrays.
    """

    __slots__ = ("block_id", "calls", "ops", "row")

    def __init__(
        self,
        block_id: int,
        operations: Sequence[Operation] = (),
        calls: Sequence[str] = (),
        *,
        ops: FlatOps | None = None,
        row: int = 0,
    ):
        self.block_id = block_id
        self.calls = list(calls)
        self.ops = flat_ops([operations]) if ops is None else ops
        self.row = row

    @property
    def operations(self) -> tuple[Operation, ...]:
        """The block's operations, made from its arrays on each call."""
        return self.ops.operations(self.row)

    @property
    def num_operations(self) -> int:
        return int(self.ops.bounds[self.row + 1] - self.ops.bounds[self.row])

    def memory_operations(self) -> list[Operation]:
        """The load/store operations in this block, in order."""
        return [op for op in self.operations if op.is_memory]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BasicBlock(id={self.block_id}, ops={self.num_operations})"


@dataclass
class Procedure:
    """A named procedure: a CFG of basic blocks with an entry and exits.

    Blocks are stored in layout order; ``blocks[0]`` is the entry.  A block
    with no outgoing edges is a return block.
    """

    name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    edges: list[ControlFlowEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._succ: dict[int, list[ControlFlowEdge]] | None = None
        self._by_id: dict[int, BasicBlock] | None = None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ProgramStructureError(f"procedure {self.name!r} has no blocks")
        return self.blocks[0]

    def block(self, block_id: int) -> BasicBlock:
        """The block with id ``block_id`` (raises if absent).

        Looked up in an id -> block map built on first use, so
        ``blocks`` must not change after the first lookup.  Where ids
        repeat (an invalid procedure), the first block in layout order
        wins.
        """
        if self._by_id is None:
            by_id: dict[int, BasicBlock] = {}
            for blk in self.blocks:
                by_id.setdefault(blk.block_id, blk)
            self._by_id = by_id
        try:
            return self._by_id[block_id]
        except KeyError:
            raise ProgramStructureError(
                f"procedure {self.name!r} has no block {block_id}"
            ) from None

    def successors(self, block_id: int) -> list[ControlFlowEdge]:
        """Outgoing edges of ``block_id``.

        Grouped by source on first call, so ``edges`` must not change
        after it.
        """
        if self._succ is None:
            succ: dict[int, list[ControlFlowEdge]] = {}
            for edge in self.edges:
                succ.setdefault(edge.src, []).append(edge)
            self._succ = succ
        return self._succ.get(block_id, [])

    @property
    def num_operations(self) -> int:
        return sum(blk.num_operations for blk in self.blocks)


@dataclass
class Program:
    """A whole application: procedures plus the name of the entry procedure."""

    name: str
    procedures: dict[str, Procedure] = field(default_factory=dict)
    entry: str = "main"

    def __post_init__(self) -> None:
        self._block_index: dict[tuple[str, int], int] | None = None
        self._ops: FlatOps | None = None
        self._targets: np.ndarray | None = None

    def add(self, procedure: Procedure) -> None:
        """Register a procedure; names must be unique."""
        if procedure.name in self.procedures:
            raise ProgramStructureError(
                f"duplicate procedure name {procedure.name!r}"
            )
        self.procedures[procedure.name] = procedure
        self._block_index = self._ops = self._targets = None

    @property
    def ops(self) -> FlatOps:
        """Every block's operations as one :class:`FlatOps`, block ``k``
        the ``k``-th of :meth:`all_blocks`: the one its blocks share as
        their rows (a generated program's), else flattened on first use,
        like :meth:`block_index`."""
        if self._ops is None:
            blocks = [blk for _, blk in self.all_blocks()]
            shared = blocks[0].ops if blocks else flat_ops([])
            if len(shared.bounds) == len(blocks) + 1 and all(
                blk.ops is shared and blk.row == k
                for k, blk in enumerate(blocks)
            ):
                self._ops = shared
            else:
                self._ops = flat_ops([blk.operations for blk in blocks])
        return self._ops

    def branch_targets(self) -> np.ndarray:
        """Per block in layout order, whether control reaches it other
        than by falling through (:func:`branch_targets`).  Built on
        first use, like :meth:`block_index`."""
        if self._targets is None:
            flags: list[bool] = []
            for proc in self.procedures.values():
                order = [blk.block_id for blk in proc.blocks]
                flags += branch_targets(proc, order)
            self._targets = np.array(flags, dtype=bool)
        return self._targets

    def block_index(self) -> dict[tuple[str, int], int]:
        """Each block's (procedure name, block id) key, in layout order,
        mapped to its position.

        Built on first use and shared by every compiled program and
        binary of this program, so blocks must not change after it
        (``add`` starts a new index).  Where keys repeat (an invalid
        program), the last position wins.
        """
        if self._block_index is None:
            self._block_index = {
                (name, blk.block_id): position
                for position, (name, blk) in enumerate(self.all_blocks())
            }
        return self._block_index

    def procedure(self, name: str) -> Procedure:
        """The procedure named ``name`` (raises if absent)."""
        try:
            return self.procedures[name]
        except KeyError:
            raise ProgramStructureError(
                f"program {self.name!r} has no procedure {name!r}"
            ) from None

    @property
    def entry_procedure(self) -> Procedure:
        return self.procedure(self.entry)

    def all_blocks(self) -> list[tuple[str, BasicBlock]]:
        """Every (procedure name, block) pair in layout order."""
        out: list[tuple[str, BasicBlock]] = []
        for proc in self.procedures.values():
            for blk in proc.blocks:
                out.append((proc.name, blk))
        return out

    @property
    def num_operations(self) -> int:
        return sum(p.num_operations for p in self.procedures.values())

    @property
    def num_blocks(self) -> int:
        return sum(len(p.blocks) for p in self.procedures.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program(name={self.name!r}, procedures={len(self.procedures)}, "
            f"blocks={self.num_blocks}, ops={self.num_operations})"
        )


def branch_targets(proc: Procedure, block_order: list[int]) -> list[bool]:
    """Per block of ``block_order``, an emission order of ``proc``'s
    blocks, whether it is the first or the destination of an edge that
    does not go to the next block in that order."""
    order = {block_id: i for i, block_id in enumerate(block_order)}
    targets = {e.dst for e in proc.edges if order[e.dst] != order[e.src] + 1}
    return [not i or block in targets for i, block in enumerate(block_order)]
