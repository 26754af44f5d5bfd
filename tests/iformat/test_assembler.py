"""Unit tests for repro.iformat.assembler, and the production assembler
against the per-instruction oracle in :mod:`repro.oracles.assembler`."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.iformat.assembler import assemble
from repro.iformat.format_synth import synthesize_format
from repro.isa.operations import (
    OP_CLASSES,
    OpClass,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
)
from repro.isa.program import Program
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P6332
from repro.machine.processor import make_processor
from repro.oracles import assembler as oracle
from repro.vliwcomp.compile import CompiledBlock, compile_program
from repro.oracles.compiler import compiled_from_blocks, schedule_block


class TestAssemble:
    def test_every_block_assembled(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        assembled = assemble(compiled)
        assert set(assembled.blocks) == set(compiled.blocks)
        assert all(b.size_bytes > 0 for b in assembled.blocks.values())

    def test_text_bytes_is_block_sum(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        assembled = assemble(compiled)
        assert assembled.text_bytes == sum(
            b.size_bytes for b in assembled.blocks.values()
        )

    def test_explicit_format_is_used(self, tiny):
        mdes = MachineDescription(P1111)
        compiled = compile_program(tiny.program, mdes)
        fmt = synthesize_format(mdes)
        assembled = assemble(compiled, fmt)
        assert assembled.iformat is fmt

    def test_wide_machine_text_is_larger(self, tiny):
        narrow = assemble(
            compile_program(tiny.program, MachineDescription(P1111))
        )
        wide = assemble(
            compile_program(tiny.program, MachineDescription(P6332))
        )
        assert wide.text_bytes > narrow.text_bytes

    def test_block_size_at_least_instruction_count_bytes(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        assembled = assemble(compiled)
        for key, blk in assembled.blocks.items():
            # Every instruction occupies at least one byte.
            assert blk.size_bytes >= blk.instructions

    def test_instruction_counts_match_schedule(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        assembled = assemble(compiled)
        blocks = compiled.blocks
        for key, ablock in assembled.blocks.items():
            assert ablock.instructions == blocks[key].num_instructions


def _compiled(ops, mdes, block_id=0):
    """One block's :class:`CompiledProgram`, scheduled for ``mdes``."""
    block = CompiledBlock(
        block_id=block_id,
        operations=tuple(ops),
        schedule=schedule_block(list(ops), mdes),
        speculative_streams=(),
        spill_ops=0,
    )
    return compiled_from_blocks(
        Program(name="random"), mdes, {("main", block_id): block}
    )


def _assert_matches_oracle(compiled):
    got = assemble(compiled)
    want = oracle.assemble(compiled, got.iformat)
    assert got.blocks == want.blocks
    return got


SLOW_MEMORY = {
    OpClass.INT: 1,
    OpClass.FLOAT: 3,
    OpClass.MEMORY: 9,
    OpClass.BRANCH: 1,
}


class TestMatchesPerInstructionOracle:
    def test_suite_program(self, tiny):
        for processor in (P1111, P6332):
            mdes = MachineDescription(processor)
            _assert_matches_oracle(compile_program(tiny.program, mdes))

    def test_empty_block_is_one_noop(self):
        mdes = MachineDescription(P1111)
        got = _assert_matches_oracle(_compiled([], mdes))
        (block,) = got.blocks.values()
        assert block.instructions == 0 and block.explicit_noops == 0
        assert block.size_bytes == got.iformat.noop_instruction_bytes()

    def test_single_instruction_block(self):
        mdes = MachineDescription(P1111)
        ops = [make_int(1, (9,)), make_float(2, (9,)), make_load(3, 9)]
        got = _assert_matches_oracle(_compiled(ops, mdes))
        (block,) = got.blocks.values()
        assert block.instructions == 1 and block.explicit_noops == 0

    def test_stall_runs_longer_than_the_noop_field(self):
        # A chain of three 9-cycle loads stalls 24 cycles; spread over
        # the four instructions' gaps that is 6 a gap, more than the
        # multi-no-op field's run of 3.
        mdes = MachineDescription(P1111, latencies=SLOW_MEMORY)
        ops = [
            make_load(1, 0),
            make_load(2, 1),
            make_load(3, 2),
            make_int(4, (3,)),
        ]
        got = _assert_matches_oracle(_compiled(ops, mdes))
        (block,) = got.blocks.values()
        assert got.iformat.max_noop_run == 3
        assert block.explicit_noops == 4 * (6 - 3)


@st.composite
def scheduled_blocks(draw):
    """A random block of 0-24 ops with dependences and long latencies,
    scheduled on a random machine."""
    latencies = {cls: draw(st.integers(1, 12)) for cls in OP_CLASSES}
    processor = make_processor(
        *(draw(st.integers(1, 3)) for _ in OP_CLASSES),
        has_predication=draw(st.booleans()),
    )
    mdes = MachineDescription(processor, latencies=latencies)
    ops = []
    for index in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["int", "float", "load", "store"]))
        src = draw(st.integers(0, max(0, index)))
        if kind == "int":
            ops.append(make_int(index + 1, (src,)))
        elif kind == "float":
            ops.append(make_float(index + 1, (src,)))
        elif kind == "load":
            ops.append(make_load(index + 1, src, draw(st.integers(0, 2))))
        else:
            ops.append(make_store(src, 0, draw(st.integers(0, 2))))
    if ops and draw(st.booleans()):
        ops.append(make_branch((len(ops),)))
    return _compiled(ops, mdes, block_id=draw(st.integers(0, 5)))


class TestMatchesOracleProperty:
    @given(compiled=scheduled_blocks())
    @settings(max_examples=200, deadline=None)
    def test_random_blocks(self, compiled):
        _assert_matches_oracle(compiled)
