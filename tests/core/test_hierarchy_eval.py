"""Unit tests for repro.core.hierarchy_eval."""

import pytest

from repro.core.hierarchy_eval import (
    MissPenalties,
    SystemEvaluation,
    evaluate_system,
    processor_cycles,
)
from repro.errors import ConfigurationError
from repro.explore.spec import SystemDesignSpace
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P6332
from repro.oracles.compiler import compile_program as oracle_compile
from repro.trace.emulator import emulate
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.workloads.suite import load_benchmark


class TestMissPenalties:
    def test_defaults(self):
        penalties = MissPenalties()
        assert penalties.l2_miss > penalties.l1_miss > 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            MissPenalties(l1_miss=-1)


class TestSystemEvaluation:
    def test_total_cycles(self):
        evaluation = SystemEvaluation(
            processor_cycles=1000,
            icache_stalls=100.0,
            dcache_stalls=50.0,
            unified_stalls=250.0,
        )
        assert evaluation.total_cycles == 1400.0
        assert evaluation.memory_stall_fraction == pytest.approx(400 / 1400)

    def test_zero_cycles(self):
        evaluation = SystemEvaluation(0, 0.0, 0.0, 0.0)
        assert evaluation.memory_stall_fraction == 0.0


class TestProcessorCycles:
    def test_weighted_by_visit_counts(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        events = emulate(tiny.program, tiny.streams, seed=1, max_visits=400)
        total = processor_cycles(compiled, events)
        # Recompute by hand.
        expected = 0
        for proc_name, block_id, _ in events.iter_visits():
            expected += compiled.block(proc_name, block_id).issue_cycles
        assert total == expected
        assert total > 0

    def test_wider_processor_fewer_cycles_dynamic(self, tiny):
        events = emulate(tiny.program, tiny.streams, seed=1, max_visits=400)
        from repro.machine.processor import make_processor

        narrow = compile_program(
            tiny.program,
            MachineDescription(make_processor(1, 1, 1, 1, has_speculation=False)),
        )
        wide = compile_program(
            tiny.program,
            MachineDescription(make_processor(6, 3, 3, 2, has_speculation=False)),
        )
        assert processor_cycles(wide, events) < processor_cycles(
            narrow, events
        )


class TestEvaluateSystem:
    def test_stall_accounting(self, tiny):
        compiled = compile_program(tiny.program, MachineDescription(P1111))
        events = emulate(tiny.program, tiny.streams, seed=1, max_visits=200)
        evaluation = evaluate_system(
            compiled,
            events,
            icache_misses=10,
            dcache_misses=20,
            unified_misses=5,
            penalties=MissPenalties(l1_miss=10, l2_miss=100),
        )
        assert evaluation.icache_stalls == 100
        assert evaluation.dcache_stalls == 200
        assert evaluation.unified_stalls == 500
        assert evaluation.total_cycles == (
            evaluation.processor_cycles + 800
        )


def per_visit_cycles(compiled, events) -> int:
    """The per-visit sum ``processor_cycles`` replaced: each visited
    block's issue cycles, looked up block by block, times its visits."""
    total = 0
    for index, count in enumerate(events.visit_frequencies().tolist()):
        if count:
            proc_name, block_id = events.blocks[index]
            total += count * compiled.block(proc_name, block_id).issue_cycles
    return total


class TestProcessorCyclesParity:
    """The dot product equals the per-visit sum on every design-space
    processor, over a trace that leaves blocks unvisited."""

    def test_every_epic_processor(self):
        workload = load_benchmark("epic", scale=0.5)
        events = emulate(workload.program, workload.streams, seed=5, max_visits=4000)
        assert len(events.blocks) < workload.program.num_blocks
        memo = BlockMemo(workload.program)
        for processor in SystemDesignSpace().processors:
            compiled = compile_program(
                workload.program, MachineDescription(processor), memo=memo
            )
            assert processor_cycles(compiled, events) == per_visit_cycles(
                compiled, events
            ), processor.name

    def test_oracle_compiled_program(self, tiny):
        events = emulate(tiny.program, tiny.streams, seed=2, max_visits=30)
        assert len(events.blocks) < tiny.program.num_blocks
        for processor in (P1111, P6332):
            compiled = oracle_compile(tiny.program, MachineDescription(processor))
            assert processor_cycles(compiled, events) == per_visit_cycles(
                compiled, events
            )
