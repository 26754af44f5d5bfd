"""Unit tests for repro.vliwcomp.compile."""

import copy
import gc

import numpy as np
import pytest

from repro.cache.config import WORD_BYTES
from repro.errors import ConfigurationError
from repro.explore.spec import SystemDesignSpace
from repro.iformat.assembler import assemble
from repro.iformat.linker import link
from repro.isa.operations import OpClass
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P3221, P6332
from repro.machine.processor import make_processor
from repro.oracles.compiler import compile_program as oracle_compile
from repro.vliwcomp.compile import (
    BlockMemo,
    compile_program,
    speculation_capacity,
)
from repro.vliwcomp.regalloc import SPILL_STREAM
from repro.workloads.suite import load_benchmark, tiny_workload


class TestSpeculationCapacity:
    def test_paper_widths(self):
        assert speculation_capacity(4) == 0
        assert speculation_capacity(5) == 1
        assert speculation_capacity(8) == 2
        assert speculation_capacity(9) == 3
        assert speculation_capacity(14) == 5


class TestCompileProgram:
    def test_every_block_compiled(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        expected_keys = {
            (name, blk.block_id) for name, blk in tiny.program.all_blocks()
        }
        assert set(compiled.blocks) == expected_keys

    def test_reference_machine_does_not_speculate(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        assert all(
            not cb.speculative_streams for cb in compiled.blocks.values()
        )

    def test_wide_machine_speculates_loads(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P6332))
        spec_counts = [
            len(cb.speculative_streams) for cb in compiled.blocks.values()
        ]
        assert sum(spec_counts) > 0
        assert max(spec_counts) <= speculation_capacity(P6332.issue_width)

    def test_speculation_disabled_by_feature_flag(self, tiny):
        no_spec = make_processor(6, 3, 3, 2, has_speculation=False)
        compiled = compile_program(tiny.program, MachineDescription(no_spec))
        assert all(
            not cb.speculative_streams for cb in compiled.blocks.values()
        )

    def test_speculative_ops_grow_code(self, tiny):
        narrow = compile_program(tiny.program, MachineDescription(P1111))
        wide = compile_program(tiny.program, MachineDescription(P3221))
        assert wide.total_operations() >= narrow.total_operations()

    def test_spill_ops_use_spill_stream(self, tiny):
        tiny_regs = make_processor(6, 3, 3, 2, int_registers=8)
        compiled = compile_program(tiny.program, MachineDescription(tiny_regs))
        spilled = [cb for cb in compiled.blocks.values() if cb.spill_ops]
        for cb in spilled:
            spill_ops = [
                op for op in cb.operations if op.stream == SPILL_STREAM
            ]
            assert len(spill_ops) == cb.spill_ops

    def test_schedules_cover_all_operations(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P3221))
        for cb in compiled.blocks.values():
            issued = sorted(
                i for instr in cb.schedule.instructions for i in instr
            )
            assert issued == list(range(len(cb.operations)))

    def test_wider_machine_fewer_cycles_overall(self, tiny):
        # Compare without speculation: hoisted loads add work per block,
        # so the clean width effect is visible only feature-for-feature.
        narrow = compile_program(
            tiny.program,
            MachineDescription(make_processor(1, 1, 1, 1, has_speculation=False)),
        )
        wide = compile_program(
            tiny.program,
            MachineDescription(make_processor(6, 3, 3, 2, has_speculation=False)),
        )
        narrow_cycles = sum(
            cb.issue_cycles for cb in narrow.blocks.values()
        )
        wide_cycles = sum(cb.issue_cycles for cb in wide.blocks.values())
        assert wide_cycles < narrow_cycles


class TestSharedBlockMemo:
    """One block memo shared across processors changes no compiled
    block: each equals a fresh compile and the per-block oracle's, and
    the memo's graphs are built once per (capacity, latency table) and
    never changed by a compile."""

    MDESES = (
        MachineDescription(P1111),
        MachineDescription(make_processor(2, 1, 1, 1)),
        MachineDescription(P3221),
        MachineDescription(make_processor(4, 2, 2, 1)),
        MachineDescription(P6332),
        MachineDescription(make_processor(2, 1, 1, 1, int_registers=8)),
        MachineDescription(make_processor(4, 2, 2, 1, int_registers=8)),
        MachineDescription(
            P3221,
            latencies={
                OpClass.INT: 2,
                OpClass.FLOAT: 4,
                OpClass.MEMORY: 3,
                OpClass.BRANCH: 1,
            },
        ),
    )

    def test_shared_memo_matches_fresh_compiles(self, tiny):
        fresh = [compile_program(tiny.program, mdes) for mdes in self.MDESES]
        capacities = {
            speculation_capacity(mdes.processor.issue_width)
            for mdes in self.MDESES
        }
        spill_totals = {
            sum(cb.spill_ops for cb in compiled.blocks.values())
            for compiled in fresh
        }
        assert len(capacities) >= 4
        assert len(spill_totals) >= 3

        memo = BlockMemo(tiny.program)
        self._assert_compiles_match(tiny, memo, fresh)
        # A second pass through the same memo changes nothing either.
        self._assert_compiles_match(tiny, memo, fresh)
        for mdes, want in zip(self.MDESES, fresh):
            assert oracle_compile(tiny.program, mdes).blocks == want.blocks

    def test_graphs_are_shared_and_unchanged(self, tiny):
        memo = BlockMemo(tiny.program)
        for mdes in self.MDESES:
            compile_program(tiny.program, mdes, memo=memo)
        graphs = dict(memo._graphs)
        # One graph per (capacity, latency table): 5 capacities with the
        # default latencies, one more for the other table.
        assert len(graphs) == len({
            (speculation_capacity(m.processor.issue_width),
             tuple(sorted(m.latencies.items(), key=lambda kv: kv[0].value)))
            for m in self.MDESES
        })
        snapshot = copy.deepcopy(graphs)
        for mdes in self.MDESES:
            compile_program(tiny.program, mdes, memo=memo)
        assert memo._graphs.keys() == graphs.keys()
        for key, built in graphs.items():
            assert memo._graphs[key] is built
            for got, want in zip(built, snapshot[key]):
                if isinstance(got, tuple):
                    assert all(map(np.array_equal, got, want))
                else:
                    assert np.array_equal(got, want)

    def test_memo_refuses_another_program(self, tiny):
        memo = BlockMemo(tiny.program)
        compile_program(tiny.program, MachineDescription(P1111), memo=memo)
        twin = tiny_workload().program  # equal content, another object
        with pytest.raises(ConfigurationError):
            compile_program(twin, MachineDescription(P1111), memo=memo)

    def _assert_compiles_match(self, tiny, memo, fresh):
        for mdes, want in zip(self.MDESES, fresh):
            got = compile_program(tiny.program, mdes, memo=memo).blocks
            assert got.keys() == want.blocks.keys()
            for key, block in want.blocks.items():
                other = got[key]
                assert other.operations == block.operations
                assert other.schedule == block.schedule
                assert other.spill_ops == block.spill_ops
                assert other.speculative_streams == block.speculative_streams
                assert other.predicted_successor == block.predicted_successor


class TestCompiledArrays:
    """A compiled program is per-processor arrays: its blocks, made on
    demand, equal the per-block oracle's on every epic design-space
    processor and iterate in layout order, and compiling, assembling
    and linking all 12 processors leaves few tracked objects."""

    @pytest.fixture(scope="class")
    def epic(self):
        program = load_benchmark("epic").program
        memo = BlockMemo(program)
        mdeses = [MachineDescription(p) for p in SystemDesignSpace().processors]
        return program, [
            (compile_program(program, mdes, memo=memo), oracle_compile(program, mdes))
            for mdes in mdeses
        ]

    def test_blocks_equal_the_oracle(self, epic):
        program, pairs = epic
        for got, want in pairs:
            for name, blk in program.all_blocks():
                block = got.block(name, blk.block_id)
                other = want.block(name, blk.block_id)
                where = (got.processor_name, name, blk.block_id)
                assert block.schedule.instructions == (
                    other.schedule.instructions
                ), where
                assert block.schedule.cycles == other.schedule.cycles, where
                assert block.schedule.mix == other.schedule.mix, where
                assert block.spill_ops == other.spill_ops, where
                assert block.predicted_successor == (
                    other.predicted_successor
                ), where
                assert block.speculative_streams == (
                    other.speculative_streams
                ), where
                assert block.operations == other.operations, where
        assert any((got.predicted >= 0).any() for got, _ in pairs)

    def test_blocks_iterate_in_layout_order(self, epic):
        program, pairs = epic
        layout = [(name, blk.block_id) for name, blk in program.all_blocks()]
        for got, want in pairs:
            assert list(got.blocks) == layout == got.keys
            assert list(want.blocks) == layout
            assert got.blocks == want.blocks

    def test_compile_assemble_link_leave_few_tracked_objects(self):
        # Every result is arrays per processor: no per-block records.
        program = load_benchmark("epic").program
        mdeses = [MachineDescription(p) for p in SystemDesignSpace().processors]
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            memo = BlockMemo(program)
            results = []
            for mdes in mdeses:
                compiled = compile_program(program, mdes, memo=memo)
                assembled = assemble(compiled)
                packet = mdes.processor.issue_width * WORD_BYTES
                results.append((compiled, assembled, link(program, assembled, packet)))
            left = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert len(results) == 12
        assert left < 5_000
