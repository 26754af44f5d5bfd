"""The per-op workload generator: one :class:`Operation` at a time.

:func:`generate_workload` builds the same program as
:func:`repro.workloads.synth.generate_workload`, from the same
``random.Random`` draws in the same order, but as a block of
:class:`~repro.isa.operations.Operation` records at a time, each
block flattened on its own.  The production generator writes every
op straight into the program's flat arrays; this one is the reference
it is checked ``==`` against, op field by op field.
"""

from __future__ import annotations

import random

from repro.cache.config import WORD_BYTES
from repro.isa.operations import OpClass, Operation
from repro.isa.program import BasicBlock, ControlFlowEdge, Procedure, Program
from repro.isa.validate import validate_program
from repro.trace.datamodel import StreamSpec
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.synth import GeneratedWorkload

#: Virtual-register id for "fresh" (never-defined) input operands.
_INPUT_REG_BASE = 500_000

#: How far back an operation may chain to recent results.
_DEPENDENCE_WINDOW = 6


def generate_workload(profile: WorkloadProfile) -> GeneratedWorkload:
    """Generate, validate and return the workload for ``profile``, one
    operation at a time."""
    rng = random.Random(profile.seed)
    streams = _build_streams(profile)
    stream_ids = sorted(streams)

    program = Program(name=profile.name, entry="main")
    worker_names = [f"f{index:03d}" for index in range(profile.n_procedures)]

    for index, name in enumerate(worker_names):
        # Each worker draws from a small rotating subset of the streams.
        assigned = [
            stream_ids[(index + k) % len(stream_ids)]
            for k in range(min(3, len(stream_ids)))
        ]
        later = worker_names[index + 1 :]
        program.add(_make_worker(name, profile, rng, assigned, later))

    program.add(_make_main(profile, rng, worker_names, stream_ids))
    validate_program(program)
    return GeneratedWorkload(program=program, streams=streams, profile=profile)


def _build_streams(profile: WorkloadProfile) -> dict[int, StreamSpec]:
    streams: dict[int, StreamSpec] = {}
    stream_id = 0
    for family in profile.streams:
        for _ in range(family.count):
            streams[stream_id] = StreamSpec(
                pattern=family.pattern,
                region_bytes=family.region_kb * 1024,
                stride_bytes=family.stride_words * WORD_BYTES,
            )
            stream_id += 1
    return streams


def _make_main(
    profile: WorkloadProfile,
    rng: random.Random,
    worker_names: list[str],
    stream_ids: list[int],
) -> Procedure:
    """The phase-loop driver procedure."""
    blocks: list[BasicBlock] = []
    edges: list[ControlFlowEdge] = []
    n_phases = len(worker_names)
    for index, worker in enumerate(worker_names):
        ops = _make_ops(
            profile, rng, stream_ids[:1], mean_ops=4.0, has_branch=True
        )
        blocks.append(
            BasicBlock(block_id=index, operations=ops, calls=[worker])
        )
        edges.append(ControlFlowEdge(index, index + 1, 1.0))
    latch_id = n_phases
    return_id = n_phases + 1
    continue_p = 1.0 - 1.0 / max(2, profile.main_iterations)
    blocks.append(
        BasicBlock(
            block_id=latch_id,
            operations=_make_ops(
                profile, rng, stream_ids[:1], mean_ops=3.0, has_branch=True
            ),
        )
    )
    edges.append(ControlFlowEdge(latch_id, 0, continue_p))
    edges.append(ControlFlowEdge(latch_id, return_id, 1.0 - continue_p))
    blocks.append(
        BasicBlock(
            block_id=return_id,
            operations=_make_ops(
                profile, rng, stream_ids[:1], mean_ops=2.0, has_branch=True
            ),
        )
    )
    return Procedure(name="main", blocks=blocks, edges=edges)


def _make_worker(
    name: str,
    profile: WorkloadProfile,
    rng: random.Random,
    assigned_streams: list[int],
    later_workers: list[str],
) -> Procedure:
    n_blocks = rng.randint(*profile.blocks_per_proc)
    blocks: list[BasicBlock] = []
    edges: list[ControlFlowEdge] = []
    for index in range(n_blocks):
        calls: list[str] = []
        if (
            later_workers
            and rng.random() < profile.call_density
        ):
            calls.append(rng.choice(later_workers))
        ops = _make_ops(
            profile,
            rng,
            assigned_streams,
            mean_ops=profile.mean_ops_per_block,
            has_branch=True,
        )
        blocks.append(BasicBlock(block_id=index, operations=ops, calls=calls))

    for index in range(n_blocks - 1):
        roll = rng.random()
        if roll < profile.loop_probability and index > 0:
            target = rng.randint(max(0, index - 4), index)
            edges.append(
                ControlFlowEdge(index, target, profile.loop_continue)
            )
            edges.append(
                ControlFlowEdge(index, index + 1, 1.0 - profile.loop_continue)
            )
        elif (
            roll < profile.loop_probability + profile.branch_probability
            and index + 2 <= n_blocks - 1
        ):
            skip_to = rng.randint(index + 2, min(n_blocks - 1, index + 6))
            taken = rng.uniform(0.55, 0.9)
            edges.append(ControlFlowEdge(index, index + 1, taken))
            edges.append(ControlFlowEdge(index, skip_to, 1.0 - taken))
        else:
            edges.append(ControlFlowEdge(index, index + 1, 1.0))
    return Procedure(name=name, blocks=blocks, edges=edges)


def _make_ops(
    profile: WorkloadProfile,
    rng: random.Random,
    streams: list[int],
    mean_ops: float,
    has_branch: bool,
) -> list[Operation]:
    """Generate one block's operation list with local dependence chains."""
    spread = max(1.0, mean_ops * 0.5)
    count = max(1, int(rng.gauss(mean_ops, spread)))
    int_w, float_w, mem_w = profile.op_mix
    total_w = int_w + float_w + mem_w
    ops: list[Operation] = []
    recent: list[int] = []
    next_reg = 0
    next_input = _INPUT_REG_BASE

    def pick_src() -> int:
        nonlocal next_input
        if recent and rng.random() < profile.dependence_density:
            return rng.choice(recent[-_DEPENDENCE_WINDOW:])
        next_input += 1
        return next_input

    for _ in range(count):
        roll = rng.random() * total_w
        dest = next_reg
        next_reg += 1
        if roll < int_w:
            op = Operation(
                OpClass.INT, dests=(dest,), srcs=(pick_src(), pick_src())
            )
        elif roll < int_w + float_w:
            op = Operation(
                OpClass.FLOAT, dests=(dest,), srcs=(pick_src(), pick_src())
            )
        else:
            stream = rng.choice(streams)
            if rng.random() < profile.load_fraction:
                op = Operation(
                    OpClass.MEMORY,
                    dests=(dest,),
                    srcs=(pick_src(),),
                    is_load=True,
                    stream=stream,
                )
            else:
                op = Operation(
                    OpClass.MEMORY,
                    srcs=(pick_src(), pick_src()),
                    is_store=True,
                    stream=stream,
                )
        ops.append(op)
        if op.dests:
            recent.append(op.dests[0])
    if has_branch:
        branch_src = recent[-1] if recent else pick_src()
        ops.append(Operation(OpClass.BRANCH, srcs=(branch_src,)))
    return ops
