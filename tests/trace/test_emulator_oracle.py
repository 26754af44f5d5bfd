"""The batch emulator against the frame-walking oracle.

* :meth:`DataAddressModel.addresses` equals a per-reference walk of
  :class:`~repro.oracles.emulator.ScalarDataAddressModel` on random
  sequences of draws, peeks and wrong-path reads, for all five
  patterns;
* :func:`~repro.trace.datamodel.lcg_states` (the jump-ahead) equals
  stepping :class:`~repro.oracles.emulator._Lcg`;
* :class:`~repro.trace.emulator.Emulator` equals
  :class:`~repro.oracles.emulator.ScalarEmulator` trace for trace on
  small suite workloads and on a program whose entry procedure returns
  before the budget runs out.
"""

from __future__ import annotations

from functools import lru_cache

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.isa.operations import make_branch, make_int, make_load, make_store
from repro.isa.program import BasicBlock, ControlFlowEdge, Procedure, Program
from repro.machine.mdes import MachineDescription
from repro.machine.presets import REFERENCE_PROCESSOR
from repro.machine.processor import make_processor
from repro.oracles.emulator import ScalarDataAddressModel, ScalarEmulator, _Lcg
from repro.trace.datamodel import (
    DRAW,
    PEEK,
    WRONG_PATH,
    DataAddressModel,
    StreamSpec,
    lcg_states,
)
from repro.trace.emulator import Emulator
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.vliwcomp.regalloc import SPILL_STREAM
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

PATTERNS = ("sequential", "strided", "random", "zipf", "stack")

_ORACLE_STEP = {
    DRAW: ScalarDataAddressModel.next_address,
    PEEK: ScalarDataAddressModel.peek_next_address,
    WRONG_PATH: ScalarDataAddressModel.wrong_path_address,
}


def oracle_addresses(streams, seed, stream, kinds) -> list[int]:
    model = ScalarDataAddressModel(streams, seed=seed)
    return [_ORACLE_STEP[kind](model, stream) for kind in kinds]


def assert_same_trace(got, want) -> None:
    assert got.blocks == want.blocks
    for name in (
        "visit_blocks",
        "data_addrs",
        "data_streams",
        "data_offsets",
        "data_writes",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def stream_specs(draw):
    pattern = draw(st.sampled_from(PATTERNS))
    words = draw(
        st.one_of(
            st.integers(1, 40),  # one word, and stack walk range 1
            st.integers(1, 1 << 16),
        )
    )
    region = words * 4 + draw(st.sampled_from([0, 0, 0, 1, 2, 3]))
    stride = draw(
        st.one_of(
            st.integers(1, 80).map(lambda w: 4 * w),
            st.just(max(4, region - region % 4)),  # stride == region
        )
    )
    return StreamSpec(pattern, region, stride)


kind_lists = st.lists(
    st.sampled_from([DRAW, DRAW, DRAW, PEEK, WRONG_PATH]), max_size=300
)
seeds = st.one_of(
    st.sampled_from([0, 1, 2**31 - 1]), st.integers(-(2**40), 2**40)
)


class TestBatchAddresses:
    @settings(max_examples=300, deadline=None)
    @given(
        spec=stream_specs(),
        stream=st.sampled_from([0, 3, 70_000]),
        seed=seeds,
        kinds=kind_lists,
    )
    @example(
        spec=StreamSpec("random", 4), stream=0, seed=0, kinds=[0, 1, 2, 0]
    )
    @example(
        spec=StreamSpec("stack", 128), stream=0, seed=2**31 - 1,
        kinds=[0, 1, 0, 2, 0, 0, 1],
    )
    @example(
        spec=StreamSpec("stack", 4), stream=1, seed=0, kinds=[2, 0, 1, 0]
    )
    @example(
        spec=StreamSpec("strided", 256, stride_bytes=256), stream=0,
        seed=2**31 - 1, kinds=[0, 2, 0, 1, 0],
    )
    @example(
        spec=StreamSpec("zipf", 4), stream=0, seed=2**31 - 1,
        kinds=[0, 2, 1, 0],
    )
    @example(
        spec=StreamSpec("sequential", 4), stream=0, seed=0,
        kinds=[0, 0, 2, 1, 0],
    )
    def test_equals_per_reference_walk(self, spec, stream, seed, kinds):
        streams = {stream: spec}
        got = DataAddressModel(streams, seed=seed).addresses(
            stream, np.asarray(kinds, dtype=np.int8)
        )
        assert got.dtype == np.int64
        assert got.tolist() == oracle_addresses(streams, seed, stream, kinds)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, kinds=kind_lists)
    def test_spill_stream(self, seed, kinds):
        got = DataAddressModel({}, seed=seed).addresses(SPILL_STREAM, kinds)
        assert got.tolist() == oracle_addresses({}, seed, SPILL_STREAM, kinds)


@pytest.mark.parametrize("steps", [0, 1, 2, 100_000])
@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
def test_lcg_jump_ahead_equals_stepping(steps, seed):
    lcg = _Lcg(seed)
    want = [lcg.state] + [lcg.next_u32() for _ in range(steps)]
    got = lcg_states(_Lcg(seed).state, steps + 1)
    assert got.dtype == np.uint64
    assert got.tolist() == want


@lru_cache(maxsize=None)
def suite_case(name: str):
    """A suite workload at scale 0.25 and its decorating compiles."""
    workload = load_benchmark(name, scale=0.25)
    memo = BlockMemo(workload.program)
    processors = (
        REFERENCE_PROCESSOR,
        make_processor(6, 3, 3, 1, has_speculation=True, has_predication=True),
        make_processor(2, 1, 1, 1, int_registers=8),
    )
    compiled = tuple(
        compile_program(workload.program, MachineDescription(p), memo=memo)
        for p in processors
    )
    return workload, (None, *compiled)


class TestEmulatorMatchesOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(BENCHMARK_NAMES),
        seed=st.integers(0, 2**31 - 1),
        budget=st.integers(1, 2_000),
        form=st.integers(0, 3),
    )
    def test_suite_workloads(self, name, seed, budget, form):
        workload, forms = suite_case(name)
        args = (workload.program, workload.streams)
        want = ScalarEmulator(*args, seed=seed).run(budget, forms[form])
        got = Emulator(*args, seed=seed).run(budget, forms[form])
        assert_same_trace(got, want)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 2_000])
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_entry_returns_before_budget(self, budget, seed):
        program, streams = returning_program()
        want = ScalarEmulator(program, streams, seed=seed).run(budget)
        got = Emulator(program, streams, seed=seed).run(budget)
        assert_same_trace(got, want)
        if budget == 2_000:
            assert got.n_visits < budget  # the entry procedure returned


def returning_program():
    """An acyclic program: main calls ``f`` and ``g`` from its return
    block, ``f`` calls ``g`` twice from one block, and every stream
    pattern is read and written."""

    def block(block_id, streams, calls=()):
        ops = [make_int(100 + block_id)]
        for position, stream in enumerate(streams):
            if position % 2:
                ops.append(make_store(1, stream=stream))
            else:
                ops.append(make_load(10 + position, stream=stream))
        return BasicBlock(block_id, ops + [make_branch()], calls=list(calls))

    main = Procedure(
        name="main",
        blocks=[
            block(0, [0, 1], calls=["f"]),
            block(1, [2, 3, 4]),
            block(2, [4]),
            block(3, [0, 2], calls=["f", "g"]),
        ],
        edges=[
            ControlFlowEdge(0, 1, 0.3),
            ControlFlowEdge(0, 2, 0.7),
            ControlFlowEdge(1, 3, 1.0),
            ControlFlowEdge(2, 3, 1.0),
        ],
    )
    f = Procedure(
        name="f",
        blocks=[block(0, [1, 3], calls=["g", "g"]), block(1, [])],
        edges=[ControlFlowEdge(0, 1, 1.0)],
    )
    g = Procedure(name="g", blocks=[block(0, [3, 4, 0])])
    program = Program(name="returning", entry="main")
    for proc in (main, f, g):
        program.add(proc)
    streams = {
        sid: StreamSpec(pattern, 1024, stride_bytes=12)
        for sid, pattern in enumerate(PATTERNS)
    }
    return program, streams
