"""Seeded synthetic workload generation, straight into flat op arrays.

``generate_workload`` turns a :class:`~repro.workloads.profiles.WorkloadProfile`
into a validated :class:`~repro.isa.program.Program` plus its data-stream
specifications.  Structure:

* ``main`` is a phase loop: one block per worker procedure, calling the
  workers in turn, with a latch block looping back — so every outer
  iteration re-tours the whole code footprint (the large-instruction-
  working-set behaviour of gcc/ghostscript the paper selects for);
* each worker procedure is a forward chain of basic blocks decorated with
  small natural loops and forward-branching diamonds, plus occasional
  calls to later workers (the call graph is acyclic by construction).

Everything is driven by one ``random.Random(profile.seed)``, so a profile
is a complete, reproducible benchmark definition.

Each op is written as one row of ints (class, stream, load/store kind,
dest, two srcs); the rows of every block become the program's one
:class:`~repro.isa.operations.FlatOps`, and each block is a row range
of it, so no :class:`~repro.isa.operations.Operation` is made.  The
per-op generator, one ``Operation`` at a time from the same draws in
the same order, is the oracle :func:`repro.oracles.synth.generate_workload`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from repro.cache.config import WORD_BYTES
from repro.isa.operations import (
    LOAD, NO_ACCESS, OP_CLASSES, STORE, FlatOps, OpClass,
)
from repro.isa.program import BasicBlock, ControlFlowEdge, Procedure, Program
from repro.isa.validate import validate_program
from repro.trace.datamodel import StreamSpec
from repro.workloads.profiles import WorkloadProfile

#: Virtual-register id for "fresh" (never-defined) input operands.
_INPUT_REG_BASE = 500_000

#: How far back an operation may chain to recent results.
_DEPENDENCE_WINDOW = 6

_INT, _FLOAT, _MEMORY, _BRANCH = map(
    OP_CLASSES.index,
    (OpClass.INT, OpClass.FLOAT, OpClass.MEMORY, OpClass.BRANCH),
)

#: Ints per op as the generator writes it: class, stream, load/store
#: kind, dest (-1 for none) and two srcs (-1 for none).
_FIELDS = 6


@dataclass(frozen=True)
class GeneratedWorkload:
    """A generated program plus its stream table."""

    program: Program
    streams: dict[int, StreamSpec]
    profile: WorkloadProfile


def generate_workload(profile: WorkloadProfile) -> GeneratedWorkload:
    """Generate, validate and return the workload for ``profile``."""
    rng = random.Random(profile.seed)
    streams = _build_streams(profile)
    stream_ids = sorted(streams)
    writer = _OpWriter(profile, rng)
    worker_names = [f"f{index:03d}" for index in range(profile.n_procedures)]

    # Each procedure as its name, (block id, calls) per block and edges.
    shapes = []
    for index, name in enumerate(worker_names):
        # Each worker draws from a small rotating subset of the streams.
        assigned = [
            stream_ids[(index + k) % len(stream_ids)]
            for k in range(min(3, len(stream_ids)))
        ]
        later = worker_names[index + 1 :]
        shapes.append(_make_worker(name, profile, writer, assigned, later))
    shapes.append(_make_main(profile, writer, worker_names, stream_ids))

    # Every block is its row of the program's arrays.
    ops, rows = writer.flat(), itertools.count()
    program = Program(name=profile.name, entry="main")
    for name, shape, edges in shapes:
        blocks = [
            BasicBlock(block_id, calls=calls, ops=ops, row=next(rows))
            for block_id, calls in shape
        ]
        program.add(Procedure(name=name, blocks=blocks, edges=edges))
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


class _OpWriter:
    """Every block's ops in generation order, as one flat int list of
    :data:`_FIELDS` ints per op."""

    def __init__(self, profile: WorkloadProfile, rng: random.Random):
        self.profile = profile
        self.rng = rng
        self.rows: list[int] = []
        self.bounds = [0]

    def block(self, streams: list[int], mean_ops: float) -> None:
        """Append one block's ops, with local dependence chains, and its
        closing branch."""
        profile, rng, rows = self.profile, self.rng, self.rows
        draw, choice = rng.random, rng.choice
        density = profile.dependence_density
        loads = profile.load_fraction
        spread = max(1.0, mean_ops * 0.5)
        count = max(1, int(rng.gauss(mean_ops, spread)))
        int_w, float_w, mem_w = profile.op_mix
        total_w = int_w + float_w + mem_w
        computed = int_w + float_w
        recent: list[int] = []
        next_input = _INPUT_REG_BASE

        def pick_src() -> int:
            nonlocal next_input
            if recent and draw() < density:
                return choice(recent)
            next_input += 1
            return next_input

        # Op ``dest`` of the block writes register ``dest``, if any.
        for dest in range(count):
            roll = draw() * total_w
            if roll < int_w:
                rows += (_INT, 0, NO_ACCESS, dest, pick_src(), pick_src())
            elif roll < computed:
                rows += (_FLOAT, 0, NO_ACCESS, dest, pick_src(), pick_src())
            else:
                stream = choice(streams)
                if draw() < loads:
                    rows += (_MEMORY, stream, LOAD, dest, pick_src(), -1)
                else:
                    rows += (_MEMORY, stream, STORE, -1, pick_src(), pick_src())
                    continue
            recent.append(dest)
            if len(recent) > _DEPENDENCE_WINDOW:
                del recent[0]
        branch_src = recent[-1] if recent else pick_src()
        rows += (_BRANCH, 0, NO_ACCESS, -1, branch_src, -1)
        self.bounds.append(len(rows) // _FIELDS)

    def flat(self) -> FlatOps:
        """Every row written so far, as flat arrays; each register table
        is as wide as its widest op, as
        :func:`~repro.isa.operations.flat_ops` pads it."""
        rows = self.rows
        table = np.fromiter(rows, np.int64, len(rows)).reshape(-1, _FIELDS)
        opclass, stream, kind = table[:, :3].T.copy()
        dests, srcs = table[:, 3:4], table[:, 4:]
        return FlatOps(
            opclass,
            stream,
            kind,
            dests[:, : (dests >= 0).any(axis=0).sum()].copy(),
            srcs[:, : (srcs >= 0).any(axis=0).sum()].copy(),
            np.array(self.bounds, dtype=np.int64),
        )


def _make_main(
    profile: WorkloadProfile,
    writer: _OpWriter,
    worker_names: list[str],
    stream_ids: list[int],
) -> tuple:
    """The phase-loop driver procedure."""
    blocks: list[tuple[int, list[str]]] = []
    edges: list[ControlFlowEdge] = []
    n_phases = len(worker_names)
    for index, worker in enumerate(worker_names):
        writer.block(stream_ids[:1], mean_ops=4.0)
        blocks.append((index, [worker]))
        edges.append(ControlFlowEdge(index, index + 1, 1.0))
    latch_id = n_phases
    return_id = n_phases + 1
    continue_p = 1.0 - 1.0 / max(2, profile.main_iterations)
    writer.block(stream_ids[:1], mean_ops=3.0)
    blocks.append((latch_id, []))
    edges.append(ControlFlowEdge(latch_id, 0, continue_p))
    edges.append(ControlFlowEdge(latch_id, return_id, 1.0 - continue_p))
    writer.block(stream_ids[:1], mean_ops=2.0)
    blocks.append((return_id, []))
    return "main", blocks, edges


def _make_worker(
    name: str,
    profile: WorkloadProfile,
    writer: _OpWriter,
    assigned_streams: list[int],
    later_workers: list[str],
) -> tuple:
    rng = writer.rng
    n_blocks = rng.randint(*profile.blocks_per_proc)
    blocks: list[tuple[int, list[str]]] = []
    edges: list[ControlFlowEdge] = []
    for index in range(n_blocks):
        calls: list[str] = []
        if (
            later_workers
            and rng.random() < profile.call_density
        ):
            calls.append(rng.choice(later_workers))
        writer.block(assigned_streams, mean_ops=profile.mean_ops_per_block)
        blocks.append((index, calls))

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
    return name, blocks, edges
