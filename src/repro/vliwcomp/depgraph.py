"""Dependence graphs of every block of a program at once.

Edges carry minimum issue-cycle separations: a RAW edge from producer to
consumer is the producer's latency; WAW edges force one cycle of
separation; WAR edges allow same-cycle issue (reads happen before writes
within a VLIW instruction).  Memory operations on the same stream are kept
in order (a conservative store/load ordering, as a real compiler without
memory disambiguation would), and a branch issues no earlier than any
operation before it in its block.

A program's operations are held as flat arrays, one per field
(:class:`~repro.isa.operations.FlatOps`).  :func:`build_graphs` derives
the edges of every block with sorts and ``searchsorted``, then the
critical-path heights with one reverse sweep per in-block position.  A
graph depends only on the operations and the latency table, so the
compiler builds one per (hoisted-load capacity, latency table) and
every processor sharing both reuses it.  The per-block builder this
replaces is the oracle
:func:`repro.oracles.compiler.build_dependence_graph`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.isa.operations import OP_CLASSES, FlatOps, OpClass, ranks

_MEMORY = OP_CLASSES.index(OpClass.MEMORY)
_BRANCH = OP_CLASSES.index(OpClass.BRANCH)


class BlockGraphs(NamedTuple):
    """Dependence DAGs of the blocks of one :class:`FlatOps`, read-only.

    Edges are grouped by source op: op ``succ[e]`` may issue no earlier
    than ``issue(i) + delay[e]`` for each ``e`` in
    ``succ_bounds[i]:succ_bounds[i + 1]``.  ``n_preds[j]`` counts the
    edges into op ``j``; ``height`` is each op's critical-path height,
    the list-scheduling priority.  ``reads`` and ``writes`` pair each
    register operand's op with its (block, register) id, and
    ``distinct_dests[k]`` counts the registers block ``k`` writes.
    """

    ops: FlatOps
    block: np.ndarray
    succ_bounds: np.ndarray
    succ: np.ndarray
    delay: np.ndarray
    n_preds: np.ndarray
    height: np.ndarray
    reads: tuple[np.ndarray, np.ndarray]
    writes: tuple[np.ndarray, np.ndarray]
    distinct_dests: np.ndarray

    @property
    def n_ops(self) -> int:
        return len(self.block)


def build_graphs(ops: FlatOps, latencies: Sequence[int]) -> BlockGraphs:
    """Dependence graphs of every block of ``ops``; ``latencies`` holds
    the result latency of each class, indexed like :data:`OP_CLASSES`."""
    n = len(ops.opclass)
    sizes = np.diff(ops.bounds)
    block = np.repeat(np.arange(len(sizes)), sizes)
    position = np.arange(n) - ops.bounds[block]
    span = int(sizes.max(initial=0)) + 1
    latency = np.asarray(latencies, dtype=np.int64)[ops.opclass]

    # Register operands as (op, (block, register) id) pairs, and sort
    # keys ordering them by (block, register, position).
    r_op, r_reg = _operands(ops.srcs)
    w_op, w_reg = _operands(ops.dests)
    registers, ids = np.unique(np.concatenate((r_reg, w_reg)), return_inverse=True)
    pair_of = block[np.concatenate((r_op, w_op))] * len(registers) + ids
    pairs, pair_ids = np.unique(pair_of, return_inverse=True)
    r_pair, w_pair = pair_ids[: len(r_op)], pair_ids[len(r_op):]
    r_key = r_pair * span + position[r_op]
    order = np.argsort(w_pair * span + position[w_op], kind="stable")
    w_op, w_pair = w_op[order], w_pair[order]
    w_key = w_pair * span + position[w_op]

    # RAW: the last write of the register before the read.
    before = np.searchsorted(w_key, r_key, side="left")
    raw = np.flatnonzero(before > 0)
    raw = raw[w_pair[before[raw] - 1] == r_pair[raw]]
    raw_src = w_op[before[raw] - 1]
    # WAW: consecutive writes of one register.
    waw = np.flatnonzero(w_pair[1:] == w_pair[:-1])
    # WAR: a read to the register's next write, unless the reading op
    # writes the register itself (its read is consumed by its write).
    after = np.searchsorted(w_key, r_key, side="right")
    war = np.flatnonzero((after < len(w_key)) & (after == before))
    war = war[w_pair[after[war]] == r_pair[war]]
    # Same-stream memory ops, in order.
    memory = np.flatnonzero(ops.opclass == _MEMORY)
    _, stream_ids = np.unique(ops.stream[memory], return_inverse=True)
    memory = memory[
        np.argsort(block[memory] * (len(memory) + 1) + stream_ids, kind="stable")
    ]
    chain = np.flatnonzero(
        (block[memory[1:]] == block[memory[:-1]])
        & (ops.stream[memory[1:]] == ops.stream[memory[:-1]])
    )
    # Branches: every earlier op of the block.
    branch = np.flatnonzero(ops.opclass == _BRANCH)
    reach = position[branch]
    branch_src = np.repeat(ops.bounds[block[branch]], reach) + ranks(reach)

    src = np.concatenate((raw_src, w_op[waw], r_op[war], memory[chain], branch_src))
    dst = np.concatenate(
        (r_op[raw], w_op[waw + 1], w_op[after[war]], memory[chain + 1],
         np.repeat(branch, reach))
    )
    delay = np.concatenate(
        (latency[raw_src], np.ones(len(waw), dtype=np.int64),
         np.zeros(len(war), dtype=np.int64), np.ones(len(chain), dtype=np.int64),
         np.zeros(len(branch_src), dtype=np.int64))
    )
    order = np.argsort(src, kind="stable")
    src, dst, delay = src[order], dst[order], delay[order]
    succ_bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=succ_bounds[1:])

    # Heights by one reverse sweep per in-block position: every edge
    # goes forward within its block.
    height = latency.copy()
    by_position = np.argsort(position[src], kind="stable")
    steps = np.searchsorted(position[src][by_position], np.arange(span + 1))
    for p in range(span - 1, -1, -1):
        edges = by_position[steps[p]: steps[p + 1]]
        np.maximum.at(height, src[edges], delay[edges] + height[dst[edges]])

    written = w_pair[np.flatnonzero(np.diff(w_pair, prepend=-1))]
    return BlockGraphs(
        ops=ops,
        block=block,
        succ_bounds=succ_bounds,
        succ=dst,
        delay=delay,
        n_preds=np.bincount(dst, minlength=n),
        height=height,
        reads=(r_op, r_pair),
        writes=(w_op, w_pair),
        distinct_dests=np.bincount(
            pairs[written] // max(len(registers), 1), minlength=len(sizes)
        ),
    )


def _operands(registers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(op, register) of every operand in a padded register table, by
    op then operand order."""
    ops, slots = np.nonzero(registers >= 0)
    return ops, registers[ops, slots]
