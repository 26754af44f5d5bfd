"""Register-pressure estimation and spill modeling.

The paper's step-1 assumption (data traces identical across processors) is
violated by exactly two compiler effects: extra register spills on wider
machines and extra speculative loads (Section 4.1).  This module models the
spill side: live ranges are measured on the *schedule* — a wider machine
packs operations into fewer cycles, overlapping more live ranges, so spill
pressure rises naturally with issue width without any ad-hoc width factor.
The per-block estimator is the oracle
:func:`repro.oracles.compiler.estimate_spills`.
"""

from __future__ import annotations

import numpy as np

from repro.machine.mdes import MachineDescription
from repro.vliwcomp.depgraph import BlockGraphs

#: Stream id reserved for spill traffic; the data-address model gives this
#: stream a small stack-like region with high locality (the paper argues
#: spill code "is likely to have high locality").
SPILL_STREAM: int = -1

#: Registers the allocator reserves (stack pointer, return address, ...).
_RESERVED_REGISTERS = 8


def register_budget(mdes: MachineDescription) -> int:
    """Integer registers left for values once the reserved ones are out."""
    return max(1, mdes.processor.int_registers - _RESERVED_REGISTERS)


def spill_ops(
    graphs: BlockGraphs, ordinals: np.ndarray, budget: int
) -> np.ndarray:
    """Spill operations each scheduled block of ``graphs`` needs.

    A virtual register is live from its first definition's instruction
    to its last later use's.  When the peak overlap exceeds ``budget``,
    each excess value is spilled: one store at the definition and one
    load at the (last) use.  A block that writes no more registers than
    the budget never spills, so only the others are swept.
    """
    n_blocks = len(graphs.distinct_dests)
    if not (graphs.distinct_dests > budget).any():
        return np.zeros(n_blocks, dtype=np.int64)
    w_op, w_pair = graphs.writes
    r_op, r_pair = graphs.reads
    n_pairs = int(max(w_pair.max(initial=-1), r_pair.max(initial=-1))) + 1
    unset = np.iinfo(np.int64).max
    start = np.full(n_pairs, unset, dtype=np.int64)
    np.minimum.at(start, w_pair, ordinals[w_op])
    end = start.copy()
    use = ordinals[r_op] > start[r_pair]
    np.maximum.at(end, r_pair[use], ordinals[r_op[use]])
    live = np.flatnonzero(start < unset)
    block = np.zeros(n_pairs, dtype=np.int64)
    block[w_pair] = graphs.block[w_op]
    # +1 at each definition, -1 after each last use; at equal times the
    # ends come first.
    when = np.concatenate((start[live], end[live] + 1))
    delta = np.repeat(np.array([1, -1]), len(live))
    where = np.concatenate((block[live], block[live]))
    order = np.lexsort((delta, when, where))
    count = np.cumsum(delta[order])
    peak = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(peak, where[order], count)
    return 2 * np.maximum(peak - budget, 0)
