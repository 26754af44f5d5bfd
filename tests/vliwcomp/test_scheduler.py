"""Unit tests for repro.vliwcomp.scheduler: the lockstep scheduler of
every block at once, checked against a rescanning reference."""

import random

import numpy as np

import pytest

from repro.errors import ScheduleError
from repro.isa.operations import (
    OP_CLASSES,
    OpClass,
    flat_ops,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
    pack_mix,
)
from repro.explore.spec import SystemDesignSpace
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111, P4221, P6332
from repro.machine.processor import make_processor
from repro.oracles.compiler import (
    build_dependence_graph,
    schedule_from_instructions,
)
from repro.vliwcomp.compile import BlockMemo, compile_program
from repro.vliwcomp.depgraph import build_graphs
from repro.vliwcomp.scheduler import BlockSchedule, runs_mix, schedule_graphs
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark


def preds_of(graph):
    """Per op, its ``(predecessor, delay)`` edges, read from the graph."""
    preds = [[] for _ in range(graph.n_ops)]
    for i, j, delay in graph.edges():
        preds[j].append((i, delay))
    return preds


def latencies_of(mdes):
    return [mdes.latencies[cls] for cls in OP_CLASSES]


def units_of(mdes):
    return [mdes.processor.units[cls] for cls in OP_CLASSES]


def block_mix(done, block):
    """Block ``block``'s mix from a lockstep schedule's mix runs."""
    return runs_mix(done.mix_block, done.mix_packed, done.mix_count, block)


def schedule_block(operations, mdes):
    """One block's schedule from the lockstep scheduler."""
    graphs = build_graphs(flat_ops([operations]), latencies_of(mdes))
    done = schedule_graphs(graphs, units_of(mdes))
    return BlockSchedule(
        done.ordinals, done.cycles[0], done.num_instructions[0], block_mix(done, 0)
    )


def scan_schedule(operations, mdes):
    """Reference list scheduler: every cycle rescans every unscheduled
    op and its predecessors for readiness."""
    if not operations:
        return schedule_from_instructions(0, (), 0, {})
    graph = build_dependence_graph(operations, mdes)
    preds = preds_of(graph)
    n = len(operations)
    issue_cycle = [-1] * n
    earliest = [0] * n
    unscheduled = set(range(n))
    instructions = []
    cycle = 0
    last_issue = 0
    while unscheduled:
        free = dict(mdes.processor.units)
        issued = []
        ready = [
            i
            for i in unscheduled
            if earliest[i] <= cycle
            and all(issue_cycle[p] >= 0 for p, _ in preds[i])
        ]
        ready.sort(key=lambda i: (-graph.height[i], i))
        for i in ready:
            cls = operations[i].opclass
            if free[cls] <= 0:
                continue
            if any(
                issue_cycle[p] < 0 or issue_cycle[p] + d > cycle
                for p, d in preds[i]
            ):
                continue
            free[cls] -= 1
            issue_cycle[i] = cycle
            issued.append(i)
        if issued:
            for i in issued:
                unscheduled.discard(i)
                for succ, delay in zip(graph.succ[i], graph.delay[i]):
                    earliest[succ] = max(earliest[succ], cycle + delay)
            instructions.append(tuple(sorted(issued)))
            last_issue = cycle
        cycle += 1
    return schedule_from_instructions(
        n, instructions, last_issue + 1, mix_of(operations, instructions)
    )


def mix_of(operations, instructions):
    """Packed per-class op count -> instructions issuing it."""
    mix = {}
    for instr in instructions:
        counts = [0] * len(OP_CLASSES)
        for i in instr:
            counts[OP_CLASSES.index(operations[i].opclass)] += 1
        key = pack_mix(counts)
        mix[key] = mix.get(key, 0) + 1
    return mix


def assert_same_schedule(got, want):
    """Equal schedules (the mix takes no part in equality) and mixes."""
    assert got == want
    assert got.mix == want.mix


def schedule_is_legal(operations, mdes, schedule):
    """Resource and dependence legality of a schedule."""
    graph = build_dependence_graph(operations, mdes)
    preds = preds_of(graph)
    cycle_of = {}
    # Reconstruct issue cycles: instructions are in cycle order but empty
    # cycles are elided, so recompute by replaying dependences greedily.
    cycle = 0
    for instr in schedule.instructions:
        counts = {}
        for i in instr:
            cls = operations[i].opclass
            counts[cls] = counts.get(cls, 0) + 1
        if any(
            counts.get(cls, 0) > mdes.processor.units[cls] for cls in counts
        ):
            return False
        # Advance to the first cycle where every member's deps are met.
        while not all(
            all(
                p in cycle_of and cycle_of[p] + d <= cycle
                for p, d in preds[i]
            )
            for i in instr
        ):
            cycle += 1
        for i in instr:
            cycle_of[i] = cycle
        cycle += 1
    if len(cycle_of) != len(operations):
        return False
    for i, succ, delay in graph.edges():
        if cycle_of[succ] - cycle_of[i] < delay:
            return False
    return True


def random_ops(rng, n=30):
    """A random straight-line block ending in a branch."""
    ops = []
    defined = []
    for _ in range(n):
        roll = rng.random()
        srcs = tuple(
            rng.choice(defined) if defined and rng.random() < 0.6
            else 1000 + rng.randrange(100)
            for _ in range(2)
        )
        dest = rng.randrange(40)
        if roll < 0.5:
            ops.append(make_int(dest, srcs))
        elif roll < 0.7:
            ops.append(make_float(dest, srcs))
        else:
            ops.append(make_load(dest, srcs[0], stream=rng.randrange(3)))
        defined.append(dest)
    ops.append(make_branch((defined[-1],)))
    return ops


class TestBasicScheduling:
    def test_empty_block(self):
        schedule = schedule_block([], MachineDescription(P1111))
        assert schedule.num_instructions == 0
        assert schedule.cycles == 0

    def test_single_op(self):
        schedule = schedule_block([make_int(1)], MachineDescription(P1111))
        assert schedule.instructions == ((0,),)
        assert schedule.cycles == 1

    def test_resource_limit_serializes_same_class(self):
        # Four independent int ops on a 1-int-unit machine: 4 cycles.
        ops = [make_int(i, (100 + i,)) for i in range(4)]
        schedule = schedule_block(ops, MachineDescription(P1111))
        assert schedule.num_instructions == 4
        assert all(len(instr) == 1 for instr in schedule.instructions)

    def test_mixed_classes_pack_into_one_instruction(self):
        ops = [make_int(1, (101,)), make_float(2, (102,)), make_load(3, 103)]
        schedule = schedule_block(ops, MachineDescription(P1111))
        assert schedule.num_instructions == 1
        assert schedule.instructions[0] == (0, 1, 2)

    def test_latency_creates_stall_cycles(self):
        # load (lat 2) feeding an int op: issue cycles 0 and 2.
        ops = [make_load(1, 100), make_int(2, (1,))]
        schedule = schedule_block(ops, MachineDescription(P1111))
        assert schedule.num_instructions == 2
        assert schedule.cycles == 3
        assert schedule.stall_cycles == 1

    def test_branch_issues_no_earlier_than_other_ops(self):
        # Blocks end with their branch (the generator's invariant); the
        # branch may share the final cycle but never precede other ops.
        ops = [make_int(1, (100,)), make_int(2, (101,)), make_branch()]
        schedule = schedule_block(ops, MachineDescription(P1111))
        last_instr = schedule.instructions[-1]
        assert 2 in last_instr  # the branch op index

    def test_wide_machine_uses_fewer_cycles(self):
        ops = [make_int(i, (100 + i,)) for i in range(12)]
        narrow = schedule_block(ops, MachineDescription(P1111))
        wide = schedule_block(ops, MachineDescription(P6332))
        assert wide.num_instructions < narrow.num_instructions
        assert wide.ops_per_instruction() > narrow.ops_per_instruction()


class TestLegality:
    def test_random_blocks_schedule_legally_on_all_machines(self):
        rng = random.Random(1234)
        for trial in range(10):
            ops = random_ops(rng)
            for processor in (P1111, P4221, P6332):
                mdes = MachineDescription(processor)
                schedule = schedule_block(ops, mdes)
                issued = [i for instr in schedule.instructions for i in instr]
                assert sorted(issued) == list(range(len(ops)))
                assert schedule_is_legal(ops, mdes, schedule), (
                    f"illegal schedule on {processor.name} trial {trial}"
                )

    def test_resource_counts_never_exceeded(self):
        rng = random.Random(7)
        ops = random_ops(rng, n=50)
        mdes = MachineDescription(P4221)
        schedule = schedule_block(ops, mdes)
        for instr in schedule.instructions:
            counts = {}
            for index in instr:
                cls = ops[index].opclass
                counts[cls] = counts.get(cls, 0) + 1
            for cls, used in counts.items():
                assert used <= P4221.units[cls]


class TestMatchesReferenceScan:
    """The scheduler issues exactly what the rescanning reference does."""

    MACHINES = (
        P1111,
        P4221,
        P6332,
        make_processor(2, 1, 1, 1, int_registers=8),
        make_processor(4, 2, 2, 1, int_registers=8),
    )

    def test_random_blocks(self):
        rng = random.Random(99)
        for _ in range(40):
            ops = random_ops(rng, n=rng.randrange(1, 60))
            for processor in self.MACHINES:
                mdes = MachineDescription(processor)
                assert_same_schedule(
                    schedule_block(ops, mdes), scan_schedule(ops, mdes)
                )

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_suite_blocks(self, name):
        """Every compiled block (hoisted and spill ops included) of a
        suite benchmark, on every design-space processor."""
        program = load_benchmark(name, scale=0.25).program
        memo = BlockMemo(program)
        for processor in [*SystemDesignSpace().processors, *self.MACHINES]:
            mdes = MachineDescription(processor)
            compiled = compile_program(program, mdes, memo=memo)
            for key, block in compiled.blocks.items():
                want = scan_schedule(list(block.operations), mdes)
                assert block.schedule == want, (processor.name, key)
                assert block.schedule.mix == want.mix, (processor.name, key)


class TestLockstep:
    """Many blocks scheduled together get each the schedule it gets
    alone, and a broken graph or an oversized unit count is refused."""

    def test_blocks_scheduled_together_match_alone(self):
        rng = random.Random(3)
        blocks = [random_ops(rng, n=rng.randrange(1, 40)) for _ in range(30)]
        blocks.insert(7, [])
        for processor in (P1111, P4221, P6332):
            mdes = MachineDescription(processor)
            graphs = build_graphs(flat_ops(blocks), latencies_of(mdes))
            done = schedule_graphs(graphs, units_of(mdes))
            bounds = graphs.ops.bounds
            for k, ops in enumerate(blocks):
                together = BlockSchedule(
                    done.ordinals[bounds[k]: bounds[k + 1]],
                    done.cycles[k],
                    done.num_instructions[k],
                    block_mix(done, k),
                )
                assert_same_schedule(together, scan_schedule(ops, mdes))

    def test_unit_count_overflowing_the_mix_is_refused(self):
        mdes = MachineDescription(P1111)
        graphs = build_graphs(flat_ops([random_ops(random.Random(1))]),
                              latencies_of(mdes))
        with pytest.raises(ScheduleError, match="mix"):
            schedule_graphs(graphs, [1 << 16, 1, 1, 1])

    def test_inconsistent_graph_exceeds_the_cycle_budget(self):
        mdes = MachineDescription(P1111)
        graphs = build_graphs(flat_ops([random_ops(random.Random(2))]),
                              latencies_of(mdes))
        # An edge no op will ever satisfy: op 0 never becomes ready.
        broken = graphs._replace(n_preds=graphs.n_preds + (
            np.arange(graphs.n_ops) == 0))
        with pytest.raises(ScheduleError, match="cycles"):
            schedule_graphs(broken, units_of(mdes))
