"""The array compile equals the per-block compile of repro.oracles.

A hypothesis matrix of random programs and machines: every compiled
block must have the oracle's instructions, cycles, mix, spill-op count,
operations, speculative streams and predicted successor.  The programs
reuse a small register pool (so ops read their own dest, repeat a src
and redefine registers), mix every class with mid-block branches and
same-stream memory ops, and may hold empty blocks.  The machines have
1-4 units per class (hoist capacities 0 through 3 and more), one of two
latency tables and register budgets from 8 up, so blocks spill.

Also here: the array instruction mix equals :func:`pack_mix` up to the
largest count a mix field holds.
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.isa.operations import (
    MIX_FIELD_BITS,
    OP_CLASSES,
    OpClass,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
    pack_mix,
)
from repro.isa.program import BasicBlock, ControlFlowEdge, Procedure, Program
from repro.machine.mdes import MachineDescription, default_latencies
from repro.machine.processor import make_processor
from repro.oracles.compiler import compile_program as oracle_compile
from repro.vliwcomp.compile import BlockMemo, compile_program, speculation_capacity
from repro.vliwcomp.regalloc import register_budget
from repro.vliwcomp.scheduler import instruction_mixes

SLOW_LATENCIES = {
    OpClass.INT: 2,
    OpClass.FLOAT: 4,
    OpClass.MEMORY: 3,
    OpClass.BRANCH: 1,
}


@st.composite
def operations(draw, registers: int):
    kind = draw(st.sampled_from(["int", "float", "load", "store", "branch"]))
    dest = draw(st.integers(0, registers - 1))
    srcs = tuple(draw(st.lists(st.integers(0, registers - 1), max_size=2)))
    stream = draw(st.integers(0, 2))
    if kind == "int":
        return make_int(dest, srcs)
    if kind == "float":
        return make_float(dest, srcs)
    if kind == "load":
        return make_load(dest, srcs[0] if srcs else dest, stream)
    if kind == "store":
        return make_store(dest, srcs[0] if srcs else dest, stream)
    return make_branch(srcs)


@st.composite
def programs(draw):
    """Two procedures of 1-4 chained blocks of 0-40 ops each; each
    block falls through to the next, so speculating machines hoist its
    successor's loads."""
    program = Program(name="random")
    for name in ("main", "leaf"):
        registers = draw(st.sampled_from([4, 12, 70]))
        blocks = [
            BasicBlock(
                block_id=block_id,
                operations=draw(
                    st.lists(operations(registers), min_size=0, max_size=40)
                ),
            )
            for block_id in range(draw(st.integers(1, 4)))
        ]
        edges = [
            ControlFlowEdge(i, i + 1, 1.0) for i in range(len(blocks) - 1)
        ]
        program.add(Procedure(name=name, blocks=blocks, edges=edges))
    return program


machines = st.builds(
    lambda units, registers, speculation, slow: MachineDescription(
        make_processor(
            *units, int_registers=registers, has_speculation=speculation
        ),
        latencies=SLOW_LATENCIES if slow else default_latencies(),
    ),
    st.tuples(*[st.integers(1, 4)] * 4),
    st.sampled_from([16, 32, 64, 128]),
    st.booleans(),
    st.booleans(),
)


def assert_blocks_match(got, want):
    got = got.blocks
    assert got.keys() == want.blocks.keys()
    for key, block in want.blocks.items():
        other = got[key]
        assert other.schedule.instructions == block.schedule.instructions, key
        assert other.schedule.cycles == block.schedule.cycles, key
        assert other.schedule.mix == block.schedule.mix, key
        assert other.spill_ops == block.spill_ops, key
        assert other.operations == block.operations, key
        assert other.speculative_streams == block.speculative_streams, key
        assert other.predicted_successor == block.predicted_successor, key
        assert other == block


@given(program=programs(), mdeses=st.lists(machines, min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_array_compile_matches_per_block_oracle(program, mdeses):
    memo = BlockMemo(program)
    for mdes in mdeses:
        assert_blocks_match(
            compile_program(program, mdes, memo=memo),
            oracle_compile(program, mdes),
        )


def test_matrix_reaches_every_hoist_capacity_and_spills():
    """The matrix's machines hoist 0 through 3 loads and spill."""
    capacities = {
        speculation_capacity(sum(units))
        for units in [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1),
                      (3, 2, 2, 2)]
    }
    assert capacities >= {0, 1, 2, 3}
    # Twelve values live at once against a budget of 8.
    ops = [make_int(i, (100 + i,)) for i in range(12)]
    ops.append(make_int(50, tuple(range(12))))
    program = Program(name="spill")
    program.add(Procedure(name="main", blocks=[BasicBlock(0, ops)]))
    mdes = MachineDescription(make_processor(4, 4, 4, 4, int_registers=16))
    assert register_budget(mdes) == 8
    got = compile_program(program, mdes)
    assert got.block("main", 0).spill_ops > 0
    assert_blocks_match(got, oracle_compile(program, mdes))


def test_empty_block_compiles_to_nothing():
    program = Program(name="empty")
    program.add(Procedure(name="main", blocks=[BasicBlock(0, [])]))
    mdes = MachineDescription(make_processor(1, 1, 1, 1))
    block = compile_program(program, mdes).block("main", 0)
    assert block.schedule.instructions == ()
    assert (block.schedule.cycles, block.schedule.mix) == (0, {})
    assert_blocks_match(
        compile_program(program, mdes), oracle_compile(program, mdes)
    )


class TestMixPacking:
    """The array mix is packed in uint64, so the top class's field holds
    counts up to ``2**MIX_FIELD_BITS - 1`` without overflowing."""

    def test_full_fields_in_every_class(self):
        full = (1 << MIX_FIELD_BITS) - 1
        for counts in (
            [full] * len(OP_CLASSES),
            *([full if c == k else 0 for c in range(len(OP_CLASSES))]
              for k in range(len(OP_CLASSES))),
            [1, 0, full, 2],
        ):
            opclass = np.repeat(np.arange(len(OP_CLASSES)), counts)
            mixes = instruction_mixes(
                opclass, np.zeros(len(opclass), dtype=np.int64), 1
            )
            assert mixes.tolist() == [pack_mix(counts)]

    @given(
        st.lists(
            st.tuples(*[st.integers(0, (1 << MIX_FIELD_BITS) - 1)] * 4),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_packed_counts_round_trip(self, instructions):
        # Each instruction's ops, described by class counts: repeat
        # the class index per count, instruction by instruction.
        opclass = np.concatenate(
            [np.repeat(np.arange(4), counts) for counts in instructions]
        )
        instruction = np.repeat(
            np.arange(len(instructions)), [sum(c) for c in instructions]
        )
        mixes = instruction_mixes(opclass, instruction, len(instructions))
        assert mixes.tolist() == [pack_mix(c) for c in instructions]
