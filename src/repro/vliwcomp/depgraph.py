"""Dependence graph construction for basic-block scheduling.

Edges carry minimum issue-cycle separations: a RAW edge from producer to
consumer is the producer's latency; WAW edges force one cycle of
separation; WAR edges allow same-cycle issue (reads happen before writes
within a VLIW instruction).  Memory operations on the same stream are kept
in order (a conservative store/load ordering, as a real compiler without
memory disambiguation would).

A graph depends only on the operation list and the latency table, so
processors that share a latency table can share graphs: the block memo
of :mod:`repro.vliwcomp.compile` builds one per distinct operation list
and keeps it :meth:`~DependenceGraph.frozen` (read-only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.isa.operations import OpClass, Operation
from repro.machine.mdes import MachineDescription


@dataclass
class DependenceGraph:
    """DAG over the operation indexes of one basic block.

    ``succs[i]`` lists ``(j, delay)`` pairs: op ``j`` may issue no earlier
    than ``issue(i) + delay``.  ``height[i]`` is the critical-path height
    used as the list-scheduling priority.  A graph under construction
    holds lists; :meth:`frozen` turns them into tuples.
    """

    n_ops: int
    succs: Sequence[Sequence[tuple[int, int]]] = field(default_factory=list)
    preds: Sequence[Sequence[tuple[int, int]]] = field(default_factory=list)
    height: Sequence[int] = field(default_factory=list)

    def frozen(self) -> DependenceGraph:
        """A read-only copy, for sharing: no scheduler can change it,
        and the garbage collector stops tracking its all-int tuples, so
        a memo of thousands of graphs does not slow every collection."""
        return DependenceGraph(
            self.n_ops,
            succs=tuple(map(tuple, self.succs)),
            preds=tuple(map(tuple, self.preds)),
            height=tuple(self.height),
        )


def build_dependence_graph(
    operations: Sequence[Operation], mdes: MachineDescription
) -> DependenceGraph:
    """Build the scheduling DAG for one block's operation list."""
    n = len(operations)
    # ``preds[j]`` gains (i, delay) for each edge: op j may issue no
    # earlier than issue(i) + delay.
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # Result latency of each op, looked up once per block.
    latency = [mdes.latencies[op.opclass] for op in operations]
    last_writer: dict[int, int] = {}
    readers_since_write: dict[int, list[int]] = {}
    last_mem_by_stream: dict[int, int] = {}

    for i, op in enumerate(operations):
        for src in op.srcs:
            if src in last_writer:
                producer = last_writer[src]
                preds[i].append((producer, latency[producer]))
            readers_since_write.setdefault(src, []).append(i)
        for dst in op.dests:
            if dst in last_writer:
                preds[i].append((last_writer[dst], 1))  # WAW
            for reader in readers_since_write.get(dst, []):
                if reader != i:
                    preds[i].append((reader, 0))  # WAR: same cycle legal
            last_writer[dst] = i
            readers_since_write[dst] = []
        if op.is_memory:
            prev = last_mem_by_stream.get(op.stream)
            if prev is not None:
                # Keep same-stream memory operations ordered (one cycle).
                preds[i].append((prev, 1))
            last_mem_by_stream[op.stream] = i
        if op.opclass is OpClass.BRANCH:
            # The branch ends the block: every earlier op must issue no
            # later than the branch's cycle.
            preds[i].extend((j, 0) for j in range(i))

    succs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, edges in enumerate(preds):
        for i, delay in edges:
            succs[i].append((j, delay))
    graph = DependenceGraph(n_ops=n, succs=succs, preds=preds, height=[0] * n)
    _compute_heights(graph, latency)
    return graph


def _compute_heights(graph: DependenceGraph, latency: list[int]) -> None:
    """Critical-path height of each op (reverse topological order).

    Operation indexes are already topologically ordered (edges only go
    forward in the list), so a reverse sweep suffices.
    """
    for i in range(graph.n_ops - 1, -1, -1):
        best = latency[i]
        for succ, delay in graph.succs[i]:
            candidate = delay + graph.height[succ]
            if candidate > best:
                best = candidate
        graph.height[i] = best
