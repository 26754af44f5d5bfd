"""Emulator + execution engine: run a program, produce an event trace.

This module plays the role of the paper's IMPACT-based emulation path
(Figure 3): the program's control flow is executed with seeded branch
outcomes, emitting block-enter events and load/store data addresses.

Two properties the dilation model depends on are guaranteed by
construction:

* the *block visit sequence* and the *base data addresses* depend only on
  (program, seed, budget) — never on the processor — matching the paper's
  step-1 assumption;
* processor-dependent perturbations (spill traffic, speculative loads)
  are layered on afterwards from the compiled program's per-block
  annotations, using only dedicated spill-stream state and re-reads of
  recent addresses, so the base reference stream is untouched.  These
  perturbations are exactly the step-1 error sources Table 2 measures.

The run has two halves.  A walk over a flat block plan (integer block
indexes, cumulative edge probabilities, callee entry indexes) follows
control flow with one ``rng.random()`` draw per visit of a block with
successors, and records each visit's block and chosen successor.  Every
data reference then comes from its block's reference template, and each
stream's addresses are computed in one batch by
:meth:`~repro.trace.datamodel.DataAddressModel.addresses`.  The
frame-walking emulator this replaces is kept as the reference in
:mod:`repro.oracles.emulator`.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import TraceError
from repro.isa.operations import OP_CLASSES, STORE, OpClass, ranks
from repro.isa.program import Program
from repro.isa.validate import validate_program
from repro.trace.datamodel import (
    DRAW,
    PEEK,
    WRONG_PATH,
    DataAddressModel,
    StreamSpec,
)
from repro.trace.events import EventTrace
from repro.vliwcomp.compile import CompiledProgram
from repro.vliwcomp.regalloc import SPILL_STREAM

#: Template kind of a speculative load that reads wrong-path data when
#: its visit's branch goes against the compiler's prediction, and peeks
#: otherwise.
_PEEK_OR_WRONG = 3

#: Plan index of a return block's (absent) successor.
_NO_SUCCESSOR = -1
#: Plan index of a block that is not in the program: no visit chooses it.
_NOT_IN_PLAN = -2


class _BlockPlan:
    """Flat control flow of a program: blocks by global plan index.

    ``keys[i]`` is block ``i``'s (procedure name, block id).
    ``edges[i]`` is None for a return block, else a tuple of
    (cumulative probability, successor index) pairs in edge order;
    ``calls[i]`` holds the entry indexes of the block's callees.
    """

    __slots__ = ("keys", "edges", "calls", "entry", "_index")

    def __init__(self, program: Program):
        self.keys = [
            (proc_name, blk.block_id)
            for proc_name, blk in program.all_blocks()
        ]
        self._index = {key: index for index, key in enumerate(self.keys)}
        self.edges: list[tuple[tuple[float, int], ...] | None] = []
        self.calls: list[tuple[int, ...]] = []
        for proc_name, blk in program.all_blocks():
            proc = program.procedure(proc_name)
            acc = 0.0
            pairs = []
            for edge in proc.successors(blk.block_id):
                acc += edge.probability
                pairs.append((acc, self._index[(proc_name, edge.dst)]))
            self.edges.append(tuple(pairs) or None)
            self.calls.append(
                tuple(
                    self._index[
                        (callee, program.procedure(callee).entry.block_id)
                    ]
                    for callee in blk.calls
                )
            )
        entry = program.entry_procedure
        self.entry = self._index[(entry.name, entry.entry.block_id)]

    def index(self, proc_name: str, block_id: int) -> int:
        """Plan index of a block, or :data:`_NOT_IN_PLAN`."""
        return self._index.get((proc_name, block_id), _NOT_IN_PLAN)

    def walk(
        self, rng: random.Random, max_visits: int
    ) -> tuple[list[int], list[int]]:
        """The visited plan indexes and each visit's chosen successor.

        A block with successors draws ``rng.random()`` once and takes
        the first edge whose cumulative probability exceeds the draw,
        else the last edge.  Calls run after the visit, in order, each
        to its callee's return; then control moves to the chosen
        successor, or returns to the caller.  The walk ends when the
        entry procedure returns or after ``max_visits`` visits.
        """
        edges, calls = self.edges, self.calls
        draw = rng.random
        visits: list[int] = []
        chosen: list[int] = []
        visit, choose = visits.append, chosen.append
        # One frame per call site still running: [successor of the
        # calling block, its callees, next callee position].
        stack: list[list] = []
        block = self.entry
        remaining = max_visits
        while True:
            out = edges[block]
            if out is None:
                nxt = _NO_SUCCESSOR
            else:
                point = draw()
                for acc, nxt in out:
                    if point < acc:
                        break
            visit(block)
            choose(nxt)
            remaining -= 1
            if not remaining:
                break
            callees = calls[block]
            if callees:
                stack.append([nxt, callees, 1])
                block = callees[0]
                continue
            while nxt == _NO_SUCCESSOR and stack:
                frame = stack[-1]
                position = frame[2]
                if position < len(frame[1]):
                    frame[2] = position + 1
                    nxt = frame[1][position]
                else:
                    stack.pop()
                    nxt = frame[0]
            if nxt == _NO_SUCCESSOR:
                break
            block = nxt
        return visits, chosen


class _RefTemplates:
    """Every block's data references as flat (stream, kind, write) rows.

    Block ``i``'s rows are ``[starts[i], starts[i] + counts[i])``: its
    memory operations in order (draws, from the program's flat arrays),
    then, when decorating, the compiled block's spill operations
    (alternating store/load draws on the spill stream) and its
    speculative loads (peeks, or wrong-path reads on even positions
    when the visit's branch was mispredicted), both read from the
    compiled program's arrays.  ``predicted[i]`` is the plan index of
    the compiler's predicted successor (read only for blocks with one);
    ``missing[i]`` marks a block the compiled program lacks.
    """

    def __init__(
        self,
        program: Program,
        plan: _BlockPlan,
        compiled: CompiledProgram | None,
    ):
        n_blocks = len(plan.keys)
        ops = program.ops
        memory = np.flatnonzero(ops.opclass == OP_CLASSES.index(OpClass.MEMORY))
        block = np.searchsorted(ops.bounds, memory, side="right") - 1
        self.predicted = np.full(n_blocks, _NOT_IN_PLAN, dtype=np.int64)
        self.missing = np.zeros(n_blocks, dtype=bool)
        parts = [
            (
                block,
                ops.stream[memory].astype(np.int32),
                np.full(len(memory), DRAW, dtype=np.int8),
                ops.kind[memory] == STORE,
            )
        ]
        if compiled is not None:
            parts += self._decorations(plan, compiled)
        block = np.concatenate([part[0] for part in parts])
        order = np.argsort(block, kind="stable")
        self.counts = np.bincount(block, minlength=n_blocks)
        self.starts = np.zeros(n_blocks, dtype=np.int64)
        np.cumsum(self.counts[:-1], out=self.starts[1:])
        self.streams = np.concatenate([part[1] for part in parts])[order]
        self.kinds = np.concatenate([part[2] for part in parts])[order]
        self.writes = np.concatenate([part[3] for part in parts])[order]

    def _decorations(self, plan: _BlockPlan, compiled: CompiledProgram) -> list:
        """The spill and speculative rows (block, stream, kind, write)
        of every block in the compiled program, and its predictions."""
        if compiled.keys == plan.keys:
            rows = np.arange(len(plan.keys))
            plan_of = rows
        else:
            rows = np.fromiter(
                (compiled.index.get(key, -1) for key in plan.keys),
                np.int64,
                len(plan.keys),
            )
            plan_of = np.fromiter(
                (plan.index(*key) for key in compiled.keys),
                np.int64,
                len(compiled.keys),
            )
        self.missing = rows < 0
        block = np.flatnonzero(~self.missing)
        rows = rows[block]
        predicted = compiled.predicted[rows]
        guessed = predicted >= 0
        self.predicted[block[guessed]] = plan_of[predicted[guessed]]

        spills = compiled.spill_ops[rows]
        spill_rank = ranks(spills)
        spill_rows = (
            np.repeat(block, spills),
            np.full(len(spill_rank), SPILL_STREAM, dtype=np.int32),
            np.full(len(spill_rank), DRAW, dtype=np.int8),
            spill_rank % 2 == 0,
        )
        bounds = compiled.speculative_bounds
        hoisted = bounds[rows + 1] - bounds[rows]
        rank = ranks(hoisted)
        at = np.repeat(bounds[rows], hoisted) + rank
        speculative_rows = (
            np.repeat(block, hoisted),
            compiled.speculative[at].astype(np.int32),
            np.where(
                np.repeat(guessed, hoisted) & (rank % 2 == 0),
                _PEEK_OR_WRONG,
                PEEK,
            ).astype(np.int8),
            np.zeros(len(at), dtype=bool),
        )
        return [spill_rows, speculative_rows]


class Emulator:
    """Seeded control-flow execution of a validated program."""

    def __init__(
        self,
        program: Program,
        streams: dict[int, StreamSpec],
        seed: int = 1,
    ):
        validate_program(program)
        self.program = program
        self.streams = streams
        self.seed = seed

    def run(
        self,
        max_visits: int,
        compiled: CompiledProgram | None = None,
    ) -> EventTrace:
        """Execute until the entry procedure returns or the visit budget.

        ``compiled`` enables trace decoration: spill and speculative data
        references recorded in the compiled blocks are appended to each
        visit's base references.
        """
        if max_visits < 1:
            raise TraceError(f"max_visits must be >= 1, got {max_visits}")
        program = self.program
        data = DataAddressModel(self.streams, seed=self.seed)
        plan = _BlockPlan(program)
        templates = _RefTemplates(program, plan, compiled)
        walked, chosen = plan.walk(random.Random(self.seed), max_visits)
        visits = np.asarray(walked, dtype=np.int64)

        lacking = templates.missing[visits]
        if lacking.any():
            proc_name, block_id = plan.keys[visits[np.argmax(lacking)]]
            raise TraceError(
                f"compiled program lacks block ({proc_name!r}, {block_id})"
            )

        # Expand each visit's template rows into the flat reference list.
        counts = templates.counts[visits]
        offsets = np.zeros(len(visits) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        n_refs = int(offsets[-1])
        rows = np.repeat(templates.starts[visits] - offsets[:-1], counts)
        rows += np.arange(n_refs, dtype=np.int64)
        ref_streams = templates.streams[rows]
        ref_kinds = templates.kinds[rows]
        conditional = np.flatnonzero(ref_kinds == _PEEK_OR_WRONG)
        if len(conditional):
            predicted = templates.predicted[visits]
            wrong = predicted != np.asarray(chosen, dtype=np.int64)
            ref_visit = np.searchsorted(offsets, conditional, side="right") - 1
            ref_kinds[conditional] = np.where(
                wrong[ref_visit], WRONG_PATH, PEEK
            )

        addrs = np.empty(n_refs, dtype=np.int64)
        by_stream = np.argsort(ref_streams, kind="stable")
        ordered = ref_streams[by_stream]
        bounds = np.flatnonzero(np.diff(ordered)) + 1
        for group in np.split(by_stream, bounds) if n_refs else ():
            stream = int(ref_streams[group[0]])
            addrs[group] = data.addresses(stream, ref_kinds[group])

        # Block table in first-visit order.
        first_seen, first_at = np.unique(visits, return_index=True)
        table = first_seen[np.argsort(first_at)]
        renumber = np.empty(len(plan.keys), dtype=np.int32)
        renumber[table] = np.arange(len(table), dtype=np.int32)
        return EventTrace(
            blocks=tuple(plan.keys[i] for i in table.tolist()),
            visit_blocks=renumber[visits],
            data_addrs=addrs,
            data_streams=ref_streams,
            data_offsets=offsets,
            data_writes=templates.writes[rows],
        )


def emulate(
    program: Program,
    streams: dict[int, StreamSpec],
    seed: int = 1,
    max_visits: int = 100_000,
    compiled: CompiledProgram | None = None,
) -> EventTrace:
    """One-shot convenience wrapper around :class:`Emulator`."""
    return Emulator(program, streams, seed).run(max_visits, compiled)
