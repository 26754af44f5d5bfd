"""Unit tests for repro.isa.program."""

import pytest

import numpy as np

from repro.errors import ProgramStructureError
from repro.isa.operations import (
    flat_ops,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
)
from repro.isa.program import BasicBlock, ControlFlowEdge, Procedure, Program
from repro.workloads.suite import tiny_workload


def two_block_proc(name="p"):
    return Procedure(
        name=name,
        blocks=[
            BasicBlock(0, [make_int(0), make_branch()]),
            BasicBlock(1, [make_branch()]),
        ],
        edges=[ControlFlowEdge(0, 1, 1.0)],
    )


class TestBasicBlock:
    def test_counts_and_memory_filter(self):
        blk = BasicBlock(0, [make_int(0), make_load(1), make_branch()])
        assert blk.num_operations == 3
        assert [op.is_load for op in blk.memory_operations()] == [True]


    def test_operations_are_a_view_of_the_arrays(self):
        ops = [
            make_int(0, (3, 4)),
            make_float(1, (0,)),
            make_load(2, 1, stream=5),
            make_store(2, 0, stream=1),
            make_branch((2,)),
        ]
        blk = BasicBlock(7, ops, calls=["f"])
        assert blk.operations == tuple(ops)
        assert blk.ops.bounds.tolist() == [0, 5]
        assert blk.calls == ["f"]


class TestProcedure:
    def test_entry_is_first_block(self):
        proc = two_block_proc()
        assert proc.entry.block_id == 0

    def test_entry_of_empty_procedure_raises(self):
        with pytest.raises(ProgramStructureError, match="no blocks"):
            Procedure(name="empty").entry

    def test_block_lookup(self):
        proc = two_block_proc()
        assert proc.block(1).block_id == 1
        with pytest.raises(ProgramStructureError, match="no block 9"):
            proc.block(9)

    def test_block_lookup_cached(self):
        proc = two_block_proc()
        old = proc.block(1)
        proc.blocks = [proc.blocks[0], BasicBlock(2, [make_branch()])]
        # The map is built once; later edits to ``blocks`` are not seen.
        assert proc.block(1) is old
        with pytest.raises(ProgramStructureError, match="no block 2"):
            proc.block(2)

    def test_block_lookup_first_duplicate_wins(self):
        first, second = BasicBlock(0, []), BasicBlock(0, [make_int(0)])
        proc = Procedure(name="dup", blocks=[first, second])
        assert proc.block(0) is first

    def test_successors_cached(self):
        proc = two_block_proc()
        assert [e.dst for e in proc.successors(0)] == [1]
        proc.edges.append(ControlFlowEdge(1, 0, 1.0))
        # The grouping is built once; later edits to ``edges`` are not seen.
        assert proc.successors(1) == []

    def test_num_operations(self):
        assert two_block_proc().num_operations == 3


class TestProgram:
    def test_add_and_lookup(self):
        prog = Program(name="t", entry="p")
        prog.add(two_block_proc())
        assert prog.procedure("p").name == "p"
        assert prog.entry_procedure.name == "p"

    def test_duplicate_procedure_rejected(self):
        prog = Program(name="t")
        prog.add(two_block_proc())
        with pytest.raises(ProgramStructureError, match="duplicate"):
            prog.add(two_block_proc())

    def test_missing_procedure_raises(self):
        prog = Program(name="t")
        with pytest.raises(ProgramStructureError, match="no procedure"):
            prog.procedure("ghost")

    def test_all_blocks_and_counts(self):
        prog = Program(name="t", entry="a")
        prog.add(two_block_proc("a"))
        prog.add(two_block_proc("b"))
        keys = [(name, blk.block_id) for name, blk in prog.all_blocks()]
        assert keys == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        assert prog.num_blocks == 4
        assert prog.num_operations == 6


class TestProgramArrays:
    def test_hand_built_blocks_are_flattened_once(self):
        prog = Program(name="t", entry="a")
        prog.add(two_block_proc("a"))
        prog.add(two_block_proc("b"))
        ops = prog.ops
        assert prog.ops is ops
        want = flat_ops([blk.operations for _, blk in prog.all_blocks()])
        for field in want._fields:
            assert np.array_equal(getattr(ops, field), getattr(want, field))
        prog.add(two_block_proc("c"))
        assert len(prog.ops.bounds) == 7

    def test_generated_blocks_share_the_program_arrays(self):
        program = tiny_workload().program
        ops = program.ops
        for k, (_, blk) in enumerate(program.all_blocks()):
            assert blk.ops is ops and blk.row == k
        assert program.num_operations == len(ops.opclass)

    def test_branch_targets(self):
        proc = Procedure(
            name="p",
            blocks=[BasicBlock(i, [make_branch()]) for i in (0, 1, 2, 3)],
            edges=[
                ControlFlowEdge(0, 1, 0.5),
                ControlFlowEdge(0, 3, 0.5),
                ControlFlowEdge(1, 2, 1.0),
                ControlFlowEdge(2, 1, 0.5),
                ControlFlowEdge(2, 3, 0.5),
            ],
        )
        prog = Program(name="t", entry="p")
        prog.add(proc)
        prog.add(two_block_proc("q"))
        assert prog.branch_targets().tolist() == [
            True, True, False, True, True, False,
        ]
