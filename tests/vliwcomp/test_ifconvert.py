"""Unit tests for repro.vliwcomp.ifconvert."""

import pytest

from repro.errors import ProgramStructureError
from repro.isa.operations import make_branch, make_int, make_load
from repro.isa.program import BasicBlock, ControlFlowEdge, Procedure, Program
from repro.isa.validate import validate_program
from repro.vliwcomp.ifconvert import if_convert


def diamond_program(arm_ops=3, with_calls=False):
    """main: 0 -> {1, 2} -> 3 (a classic diamond)."""
    def ops(n, base):
        return [make_int(base + i, (100 + i,)) for i in range(n)] + [
            make_branch()
        ]

    blocks = [
        BasicBlock(0, ops(2, 0)),
        BasicBlock(
            1, ops(arm_ops, 10), calls=["leaf"] if with_calls else []
        ),
        BasicBlock(2, ops(arm_ops, 20)),
        BasicBlock(3, ops(1, 30)),
    ]
    edges = [
        ControlFlowEdge(0, 1, 0.7),
        ControlFlowEdge(0, 2, 0.3),
        ControlFlowEdge(1, 3, 1.0),
        ControlFlowEdge(2, 3, 1.0),
    ]
    program = Program(name="diamond", entry="main")
    program.add(Procedure(name="main", blocks=blocks, edges=edges))
    if with_calls:
        program.add(
            Procedure(name="leaf", blocks=[BasicBlock(0, ops(1, 0))])
        )
    validate_program(program)
    return program


class TestIfConvert:
    def test_diamond_merged(self):
        program = diamond_program()
        converted, stats = if_convert(program)
        assert stats.diamonds_converted == 1
        assert stats.blocks_removed == 2
        main = converted.procedure("main")
        assert len(main.blocks) == 2  # head + join
        head = main.block(0)
        # 2 head ops + 3 + 3 arm ops + the head branch.
        assert head.num_operations == 2 + 3 + 3 + 1
        (edge,) = main.successors(0)
        assert edge.dst == 3 and edge.probability == 1.0

    def test_block_lookup_sees_converted_blocks(self):
        """if_convert looks the arms up before merging them, so a stale
        id -> block map would still return them afterwards."""
        converted, _ = if_convert(diamond_program())
        main = converted.procedure("main")
        assert main.block(0) is main.blocks[0]
        assert main.block(3) is main.blocks[1]
        for arm in (1, 2):
            with pytest.raises(
                ProgramStructureError, match=f"no block {arm}"
            ):
                main.block(arm)

    def test_operations_predicated_count(self):
        _, stats = if_convert(diamond_program(arm_ops=4))
        assert stats.operations_predicated == 8  # branches not counted

    def test_arm_registers_renamed_apart(self):
        converted, _ = if_convert(diamond_program())
        head = converted.procedure("main").block(0)
        dests = [op.dests[0] for op in head.operations if op.dests]
        assert len(dests) == len(set(dests))  # no WAW collisions

    def test_input_program_not_mutated(self):
        program = diamond_program()
        before = program.procedure("main").num_operations
        if_convert(program)
        assert program.procedure("main").num_operations == before
        assert len(program.procedure("main").blocks) == 4

    def test_arms_with_calls_not_converted(self):
        program = diamond_program(with_calls=True)
        _, stats = if_convert(program)
        assert stats.diamonds_converted == 0

    def test_oversized_arms_not_converted(self):
        program = diamond_program(arm_ops=10)
        _, stats = if_convert(program, max_arm_ops=4)
        assert stats.diamonds_converted == 0

    def test_result_validates(self):
        converted, _ = if_convert(diamond_program())
        validate_program(converted)  # must not raise


class TestOnGeneratedWorkloads:
    def test_tiny_workload_converts_and_validates(self, tiny):
        converted, stats = if_convert(tiny.program)
        validate_program(converted)
        assert converted.num_blocks == tiny.program.num_blocks - stats.blocks_removed
        # Operation count is preserved minus the arms' branches.
        assert (
            converted.num_operations
            == tiny.program.num_operations - stats.blocks_removed
        )

    def test_predicated_pipeline_runs_end_to_end(self, tiny):
        """The paper's predicated-reference flow: if-convert, then
        evaluate against a predicated 1111 reference."""
        from dataclasses import replace as dc_replace

        from repro.cache.config import CacheConfig
        from repro.experiments.pipeline import ExperimentPipeline
        from repro.machine.processor import make_processor
        from repro.workloads.suite import Workload

        converted, stats = if_convert(tiny.program)
        workload = Workload(
            name="tiny-pred",
            program=converted,
            streams=tiny.streams,
            profile=tiny.profile,
        )
        reference = make_processor(1, 1, 1, 1, has_predication=True)
        target = make_processor(3, 2, 2, 1, has_predication=True)
        pipeline = ExperimentPipeline(
            workload,
            reference=reference,
            max_visits=1_500,
            i_granule=200,
            u_granule=800,
        )
        dilation = pipeline.dilation(target)
        assert dilation > 1.0
        config = CacheConfig.from_size(1024, 1, 32)
        estimated = pipeline.estimated_misses(dilation, "icache", [config])
        assert estimated[config] > 0
