"""Unit tests for repro.workloads.synth."""

from dataclasses import replace

from repro.isa.operations import OpClass
from repro.isa.validate import validate_program
from repro.workloads.profiles import StreamProfile, WorkloadProfile
from repro.workloads.synth import generate_workload


def profile(seed=7, **overrides):
    base = WorkloadProfile(
        name="synthtest",
        seed=seed,
        n_procedures=6,
        blocks_per_proc=(4, 9),
        mean_ops_per_block=8.0,
        op_mix=(0.5, 0.15, 0.35),
        dependence_density=0.5,
        loop_probability=0.25,
        loop_continue=0.85,
        branch_probability=0.3,
        call_density=0.15,
        streams=(
            StreamProfile("sequential", region_kb=16, count=2),
            StreamProfile("random", region_kb=8),
        ),
    )
    return replace(base, **overrides) if overrides else base


class TestGeneration:
    def test_program_validates(self):
        generated = generate_workload(profile())
        validate_program(generated.program)  # must not raise

    def test_deterministic_per_seed(self):
        a = generate_workload(profile(seed=3))
        b = generate_workload(profile(seed=3))
        assert a.program.num_operations == b.program.num_operations
        for name, proc in a.program.procedures.items():
            other = b.program.procedures[name]
            assert [blk.block_id for blk in proc.blocks] == [
                blk.block_id for blk in other.blocks
            ]
            assert [
                (e.src, e.dst, e.probability) for e in proc.edges
            ] == [(e.src, e.dst, e.probability) for e in other.edges]

    def test_different_seeds_differ(self):
        a = generate_workload(profile(seed=3))
        b = generate_workload(profile(seed=4))
        assert a.program.num_operations != b.program.num_operations

    def test_stream_table_matches_profile(self):
        generated = generate_workload(profile())
        assert len(generated.streams) == 3
        patterns = sorted(s.pattern for s in generated.streams.values())
        assert patterns == ["random", "sequential", "sequential"]

    def test_main_is_phase_loop(self):
        generated = generate_workload(profile())
        main = generated.program.procedure("main")
        # One phase block per worker + latch + return.
        assert len(main.blocks) == 6 + 2
        called = [c for blk in main.blocks for c in blk.calls]
        assert called == [f"f{i:03d}" for i in range(6)]

    def test_workers_only_call_later_workers(self):
        generated = generate_workload(profile(call_density=0.5))
        for name, proc in generated.program.procedures.items():
            if name == "main":
                continue
            index = int(name[1:])
            for blk in proc.blocks:
                for callee in blk.calls:
                    assert int(callee[1:]) > index

    def test_memory_ops_reference_known_streams(self):
        generated = generate_workload(profile())
        stream_ids = set(generated.streams)
        for _, blk in generated.program.all_blocks():
            for op in blk.operations:
                if op.is_memory:
                    assert op.stream in stream_ids

    def test_every_block_ends_with_branch(self):
        generated = generate_workload(profile())
        for _, blk in generated.program.all_blocks():
            assert blk.operations[-1].opclass is OpClass.BRANCH
