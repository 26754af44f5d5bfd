"""Structural validation of programs.

The emulator and compiler assume a handful of invariants; violating them
produces confusing downstream failures, so the workload generator and the
test suite validate programs eagerly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ProgramStructureError
from repro.isa.operations import (
    LOAD, NO_ACCESS, OP_CLASSES, STORE, FlatOps, OpClass,
)
from repro.isa.program import Procedure, Program

_CLASSES = range(len(OP_CLASSES))
_KINDS = (NO_ACCESS, LOAD, STORE)
_MEMORY = OP_CLASSES.index(OpClass.MEMORY)

#: Tolerance for branch-probability sums.
_PROB_TOL = 1e-9


def validate_procedure(proc: Procedure, program: Program | None = None) -> None:
    """Validate a single procedure; raise :class:`ProgramStructureError`.

    Checks:

    * at least one block, unique block ids;
    * every edge endpoint names an existing block;
    * outgoing-edge probabilities of each block sum to 1;
    * edge probabilities lie in (0, 1];
    * at least one return block (no outgoing edges) is reachable;
    * every call site names a procedure of ``program`` (when given).
    """
    if not proc.blocks:
        raise ProgramStructureError(f"procedure {proc.name!r} has no blocks")

    ids = [blk.block_id for blk in proc.blocks]
    if len(set(ids)) != len(ids):
        raise ProgramStructureError(
            f"procedure {proc.name!r} has duplicate block ids"
        )
    id_set = set(ids)

    out_prob: dict[int, float] = {}
    for edge in proc.edges:
        if edge.src not in id_set or edge.dst not in id_set:
            raise ProgramStructureError(
                f"procedure {proc.name!r}: edge {edge.src}->{edge.dst} "
                "references a missing block"
            )
        if not (0.0 < edge.probability <= 1.0):
            raise ProgramStructureError(
                f"procedure {proc.name!r}: edge {edge.src}->{edge.dst} has "
                f"probability {edge.probability!r} outside (0, 1]"
            )
        out_prob[edge.src] = out_prob.get(edge.src, 0.0) + edge.probability

    for block_id, total in out_prob.items():
        if not math.isclose(total, 1.0, abs_tol=_PROB_TOL):
            raise ProgramStructureError(
                f"procedure {proc.name!r}: block {block_id} outgoing "
                f"probabilities sum to {total}, expected 1"
            )

    return_blocks = id_set - set(out_prob)
    if not return_blocks:
        raise ProgramStructureError(
            f"procedure {proc.name!r} has no return block (every block has "
            "successors); the emulator would never terminate"
        )
    if not _reaches_return(proc, return_blocks):
        raise ProgramStructureError(
            f"procedure {proc.name!r}: no return block reachable from entry"
        )

    if program is not None:
        for blk in proc.blocks:
            for callee in blk.calls:
                if callee not in program.procedures:
                    raise ProgramStructureError(
                        f"procedure {proc.name!r} block {blk.block_id} calls "
                        f"unknown procedure {callee!r}"
                    )


def _reaches_return(proc: Procedure, return_blocks: set[int]) -> bool:
    """True if some return block is reachable from the entry block."""
    seen: set[int] = set()
    stack = [proc.entry.block_id]
    while stack:
        block_id = stack.pop()
        if block_id in seen:
            continue
        seen.add(block_id)
        if block_id in return_blocks:
            return True
        stack.extend(e.dst for e in proc.successors(block_id))
    return False


def validate_program(program: Program) -> None:
    """Validate every procedure, the program entry point and the
    operations (:func:`validate_ops`, on the program's flat arrays).

    Also rejects call-graph recursion: the emulator uses an explicit call
    stack without a depth limit, so recursive programs (which the paper's
    embedded workloads do not exhibit) are refused up front.
    """
    if program.entry not in program.procedures:
        raise ProgramStructureError(
            f"program {program.name!r}: entry procedure "
            f"{program.entry!r} not found"
        )
    for proc in program.procedures.values():
        validate_procedure(proc, program)
    _reject_recursion(program)
    validate_ops(program.ops, program.name)


def validate_ops(ops: FlatOps, name: str = "") -> None:
    """Check the op-level invariants on flat arrays: a known class and
    load/store kind per op, a load/store kind only on memory ops, and
    non-negative registers, each row padded with -1 after them."""
    stray = (ops.kind != NO_ACCESS) & (ops.opclass != _MEMORY)
    for problem, bad in (
        ("an unknown op class", ~np.isin(ops.opclass, _CLASSES)),
        ("an unknown load/store kind", ~np.isin(ops.kind, _KINDS)),
        ("a load/store kind on a non-memory op", stray),
        ("a negative register", _negative(ops.dests) | _negative(ops.srcs)),
    ):
        if bad.any():
            raise ProgramStructureError(
                f"program {name!r}: op {int(np.argmax(bad))} has {problem}"
            )


def _negative(registers: np.ndarray) -> np.ndarray:
    """Per row of a padded register table, whether a register is below
    -1 or follows a -1."""
    gap = (registers[:, :-1] < 0) & (registers[:, 1:] >= 0)
    return (registers < -1).any(axis=1) | gap.any(axis=1)


def _reject_recursion(program: Program) -> None:
    """Raise if the static call graph has a cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {name: WHITE for name in program.procedures}

    def visit(name: str, chain: list[str]) -> None:
        color[name] = GRAY
        chain.append(name)
        proc = program.procedures[name]
        callees = {c for blk in proc.blocks for c in blk.calls}
        for callee in callees:
            if color[callee] == GRAY:
                cycle = " -> ".join(chain + [callee])
                raise ProgramStructureError(
                    f"program {program.name!r} has recursive calls: {cycle}"
                )
            if color[callee] == WHITE:
                visit(callee, chain)
        chain.pop()
        color[name] = BLACK

    for name in program.procedures:
        if color[name] == WHITE:
            visit(name, [])
