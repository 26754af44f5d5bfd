"""The array generator equals the per-op generator of repro.oracles.synth.

``repro.workloads.synth`` writes every op straight into the program's
flat arrays; the oracle builds one ``Operation`` at a time from the same
``random.Random`` draws.  Both programs must agree on every op field
(class, stream, load/store kind, dests, srcs, block bounds), on every
procedure's blocks, calls and edges, and on the stream table: for all
ten suite programs at three scales and for drawn profiles.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.isa.operations import flat_ops
from repro.oracles import synth as oracle
from repro.workloads.profiles import StreamProfile, WorkloadProfile
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark
from repro.workloads.synth import generate_workload


def assert_same_program(got, want) -> None:
    """``got`` and ``want`` are one program, op field by op field."""
    assert got.program.name == want.program.name
    assert got.program.entry == want.program.entry
    assert list(got.program.procedures) == list(want.program.procedures)
    for name, proc in want.program.procedures.items():
        other = got.program.procedures[name]
        assert [blk.block_id for blk in other.blocks] == [
            blk.block_id for blk in proc.blocks
        ], name
        assert [blk.calls for blk in other.blocks] == [
            blk.calls for blk in proc.blocks
        ], name
        assert other.edges == proc.edges, name
    ops = got.program.ops
    expected = flat_ops(
        [blk.operations for _, blk in want.program.all_blocks()]
    )
    for field in expected._fields:
        got_field, want_field = getattr(ops, field), getattr(expected, field)
        assert np.array_equal(got_field, want_field), field
    assert got.streams == want.streams


@pytest.mark.parametrize("scale", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_programs_match_the_oracle(name, scale):
    workload = load_benchmark(name, scale=scale)
    want = oracle.generate_workload(workload.profile)
    assert_same_program(generate_workload(workload.profile), want)
    # The program the suite hands out is the generated one.
    assert np.array_equal(workload.program.ops.srcs, want.program.ops.srcs)


@st.composite
def profiles(draw) -> WorkloadProfile:
    """Small profiles over every knob, weights and probabilities
    included, zero-weight classes and certain events among them."""
    lo = draw(st.integers(2, 6))
    weight = st.sampled_from([0.0, 0.05, 0.3, 0.6, 1.0])
    mix = draw(st.tuples(weight, weight, weight).filter(lambda w: sum(w) > 0))
    probability = st.sampled_from([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
    stream = st.builds(
        StreamProfile,
        st.sampled_from(["sequential", "strided", "random", "stack"]),
        region_kb=st.integers(1, 16),
        stride_words=st.integers(1, 4),
        count=st.integers(1, 3),
    )
    return WorkloadProfile(
        name="drawn",
        seed=draw(st.integers(0, 2**32 - 1)),
        n_procedures=draw(st.integers(1, 5)),
        blocks_per_proc=(lo, lo + draw(st.integers(0, 6))),
        mean_ops_per_block=draw(st.sampled_from([1.0, 2.5, 6.0, 11.0])),
        op_mix=mix,
        dependence_density=draw(probability),
        loop_probability=draw(probability),
        loop_continue=draw(st.sampled_from([0.1, 0.5, 0.85])),
        branch_probability=draw(probability),
        call_density=draw(probability),
        load_fraction=draw(probability),
        streams=tuple(draw(st.lists(stream, min_size=1, max_size=3))),
        main_iterations=draw(st.integers(1, 300)),
    )


def _one_kind(load_fraction: float) -> WorkloadProfile:
    """Memory ops only, every one a store (0.0) or a load (1.0), so no
    op writes a register or none reads two."""
    return WorkloadProfile(
        name="one-kind",
        seed=0,
        n_procedures=1,
        blocks_per_proc=(2, 2),
        mean_ops_per_block=1.0,
        op_mix=(0.0, 0.0, 1.0),
        dependence_density=0.0,
        loop_probability=0.0,
        loop_continue=0.5,
        branch_probability=0.0,
        call_density=0.0,
        load_fraction=load_fraction,
        streams=(StreamProfile("sequential", region_kb=1),),
        main_iterations=1,
    )


@settings(max_examples=60, deadline=None)
@given(profiles())
@example(_one_kind(0.0))
@example(_one_kind(1.0))
def test_drawn_profiles_match_the_oracle(profile):
    assert_same_program(
        generate_workload(profile), oracle.generate_workload(profile)
    )
