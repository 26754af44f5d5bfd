"""Unit tests for repro.isa.validate."""

import numpy as np
import pytest

from repro.errors import ProgramStructureError
from repro.isa.operations import LOAD, OP_CLASSES, OpClass, make_branch
from repro.isa.program import BasicBlock, ControlFlowEdge, Procedure, Program
from repro.isa.validate import validate_ops, validate_procedure, validate_program
from repro.workloads.suite import tiny_workload


def linear_proc(name="p", calls=None):
    return Procedure(
        name=name,
        blocks=[
            BasicBlock(0, [make_branch()], calls=list(calls or [])),
            BasicBlock(1, [make_branch()]),
        ],
        edges=[ControlFlowEdge(0, 1, 1.0)],
    )


class TestValidateProcedure:
    def test_valid_procedure_passes(self):
        validate_procedure(linear_proc())

    def test_no_blocks(self):
        with pytest.raises(ProgramStructureError, match="no blocks"):
            validate_procedure(Procedure(name="x"))

    def test_duplicate_block_ids(self):
        proc = Procedure(
            name="x", blocks=[BasicBlock(0), BasicBlock(0)], edges=[]
        )
        with pytest.raises(ProgramStructureError, match="duplicate"):
            validate_procedure(proc)

    def test_edge_to_missing_block(self):
        proc = Procedure(
            name="x",
            blocks=[BasicBlock(0), BasicBlock(1)],
            edges=[ControlFlowEdge(0, 7, 1.0)],
        )
        with pytest.raises(ProgramStructureError, match="missing block"):
            validate_procedure(proc)

    def test_probability_out_of_range(self):
        proc = Procedure(
            name="x",
            blocks=[BasicBlock(0), BasicBlock(1)],
            edges=[ControlFlowEdge(0, 1, 1.5)],
        )
        with pytest.raises(ProgramStructureError, match="probability"):
            validate_procedure(proc)

    def test_probabilities_must_sum_to_one(self):
        proc = Procedure(
            name="x",
            blocks=[BasicBlock(0), BasicBlock(1), BasicBlock(2)],
            edges=[
                ControlFlowEdge(0, 1, 0.5),
                ControlFlowEdge(0, 2, 0.2),
            ],
        )
        with pytest.raises(ProgramStructureError, match="sum to"):
            validate_procedure(proc)

    def test_no_return_block(self):
        proc = Procedure(
            name="x",
            blocks=[BasicBlock(0), BasicBlock(1)],
            edges=[
                ControlFlowEdge(0, 1, 1.0),
                ControlFlowEdge(1, 0, 1.0),
            ],
        )
        with pytest.raises(ProgramStructureError, match="no return block"):
            validate_procedure(proc)

    def test_unreachable_return(self):
        # Entry self-loops with probability 1; block 1 returns but is
        # unreachable.
        proc = Procedure(
            name="x",
            blocks=[BasicBlock(0), BasicBlock(1)],
            edges=[ControlFlowEdge(0, 0, 1.0)],
        )
        with pytest.raises(ProgramStructureError, match="reachable"):
            validate_procedure(proc)

    def test_unknown_callee_detected_with_program(self):
        prog = Program(name="t", entry="p")
        prog.add(linear_proc("p", calls=["ghost"]))
        with pytest.raises(ProgramStructureError, match="unknown procedure"):
            validate_program(prog)


class TestValidateProgram:
    def test_missing_entry(self):
        prog = Program(name="t", entry="nope")
        prog.add(linear_proc("p"))
        with pytest.raises(ProgramStructureError, match="entry"):
            validate_program(prog)

    def test_valid_program(self):
        prog = Program(name="t", entry="p")
        prog.add(linear_proc("p", calls=["q"]))
        prog.add(linear_proc("q"))
        validate_program(prog)

    def test_direct_recursion_rejected(self):
        prog = Program(name="t", entry="p")
        prog.add(linear_proc("p", calls=["p"]))
        with pytest.raises(ProgramStructureError, match="recursive"):
            validate_program(prog)

    def test_mutual_recursion_rejected(self):
        prog = Program(name="t", entry="a")
        prog.add(linear_proc("a", calls=["b"]))
        prog.add(linear_proc("b", calls=["a"]))
        with pytest.raises(ProgramStructureError, match="recursive"):
            validate_program(prog)


class TestValidateOps:
    """The op-level invariants, checked on a generated program's arrays."""

    @pytest.fixture(scope="class")
    def ops(self):
        return tiny_workload().program.ops

    def broken(self, ops, field, row, column=None, value=-5):
        values = getattr(ops, field).copy()
        if column is None:
            values[row] = value
        else:
            values[row, column] = value
        return ops._replace(**{field: values})

    def test_generated_ops_pass(self, ops):
        validate_ops(ops)

    def test_unknown_class(self, ops):
        with pytest.raises(ProgramStructureError, match="op 3 has an unknown op class"):
            validate_ops(self.broken(ops, "opclass", 3, value=len(OP_CLASSES)))

    def test_unknown_kind(self, ops):
        with pytest.raises(ProgramStructureError, match="unknown load/store kind"):
            validate_ops(self.broken(ops, "kind", 3, value=7))

    def test_kind_only_on_memory_ops(self, ops):
        branch = int(np.flatnonzero(ops.opclass == OP_CLASSES.index(OpClass.BRANCH))[0])
        with pytest.raises(ProgramStructureError, match="non-memory op"):
            validate_ops(self.broken(ops, "kind", branch, value=LOAD))

    @pytest.mark.parametrize("field", ["dests", "srcs"])
    def test_negative_register(self, ops, field):
        with pytest.raises(ProgramStructureError, match="negative register"):
            validate_ops(self.broken(ops, field, 2, column=0))

    def test_register_after_padding(self, ops):
        row = int(np.flatnonzero(ops.srcs[:, 1] >= 0)[0])
        with pytest.raises(ProgramStructureError, match=f"op {row} has a negative"):
            validate_ops(self.broken(ops, "srcs", row, column=0, value=-1))

    def test_program_validation_checks_its_arrays(self):
        program = tiny_workload().program
        validate_program(program)
        program._ops = self.broken(program.ops, "srcs", 0, column=0)
        with pytest.raises(ProgramStructureError, match="negative register"):
            validate_program(program)
