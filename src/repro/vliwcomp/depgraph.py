"""Dependence graph construction for basic-block scheduling.

Edges carry minimum issue-cycle separations: a RAW edge from producer to
consumer is the producer's latency; WAW edges force one cycle of
separation; WAR edges allow same-cycle issue (reads happen before writes
within a VLIW instruction).  Memory operations on the same stream are kept
in order (a conservative store/load ordering, as a real compiler without
memory disambiguation would).

A graph depends only on the operation list and the latency table, so
processors that share a latency table can share graphs:
:func:`cached_dependence_graph` keys a caller-owned cache on exactly
those two inputs.  Shared graphs are frozen (read-only).
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

    def add_edge(self, src: int, dst: int, delay: int) -> None:
        """Add edge: ``dst`` may issue no earlier than issue(src)+delay."""
        self.succs[src].append((dst, delay))
        self.preds[dst].append((src, delay))

    def frozen(self) -> DependenceGraph:
        """A read-only copy, for sharing: no scheduler can change it,
        and the garbage collector stops tracking its all-int tuples, so
        a cache of thousands of graphs does not slow every collection."""
        return DependenceGraph(
            self.n_ops,
            succs=tuple(map(tuple, self.succs)),
            preds=tuple(map(tuple, self.preds)),
            height=tuple(self.height),
        )


#: Caller-owned cache of shared graphs (see :func:`cached_dependence_graph`).
GraphCache = dict[tuple, DependenceGraph]


def cached_dependence_graph(
    operations: list[Operation],
    mdes: MachineDescription,
    cache: GraphCache | None,
) -> DependenceGraph:
    """The graph of ``operations`` on ``mdes``, shared through ``cache``.

    The key covers everything :func:`build_dependence_graph` reads: the
    operations themselves and the latency of every class.  Cached graphs
    are :meth:`~DependenceGraph.frozen`.  Without a cache the graph is
    built fresh.
    """
    if cache is None:
        return build_dependence_graph(operations, mdes)
    key = (tuple(operations), tuple(mdes.latencies.items()))
    graph = cache.get(key)
    if graph is None:
        graph = build_dependence_graph(operations, mdes).frozen()
        cache[key] = graph
    return graph


def build_dependence_graph(
    operations: list[Operation], mdes: MachineDescription
) -> DependenceGraph:
    """Build the scheduling DAG for one block's operation list."""
    n = len(operations)
    graph = DependenceGraph(
        n_ops=n,
        succs=[[] for _ in range(n)],
        preds=[[] for _ in range(n)],
        height=[0] * n,
    )

    last_writer: dict[int, int] = {}
    readers_since_write: dict[int, list[int]] = {}
    last_mem_by_stream: dict[int, int] = {}

    for i, op in enumerate(operations):
        for src in op.srcs:
            if src in last_writer:
                producer = last_writer[src]
                delay = mdes.latency(operations[producer].opclass)
                graph.add_edge(producer, i, delay)
            readers_since_write.setdefault(src, []).append(i)
        for dst in op.dests:
            if dst in last_writer:
                graph.add_edge(last_writer[dst], i, 1)  # WAW
            for reader in readers_since_write.get(dst, []):
                if reader != i:
                    graph.add_edge(reader, i, 0)  # WAR: same cycle legal
            last_writer[dst] = i
            readers_since_write[dst] = []
        if op.is_memory:
            prev = last_mem_by_stream.get(op.stream)
            if prev is not None:
                # Keep same-stream memory operations ordered (one cycle).
                graph.add_edge(prev, i, 1)
            last_mem_by_stream[op.stream] = i
        if op.opclass is OpClass.BRANCH:
            # The branch ends the block: every earlier op must issue no
            # later than the branch's cycle.
            for j in range(i):
                graph.add_edge(j, i, 0)

    _compute_heights(graph, operations, mdes)
    return graph


def _compute_heights(
    graph: DependenceGraph,
    operations: list[Operation],
    mdes: MachineDescription,
) -> None:
    """Critical-path height of each op (reverse topological order).

    Operation indexes are already topologically ordered (edges only go
    forward in the list), so a reverse sweep suffices.
    """
    for i in range(graph.n_ops - 1, -1, -1):
        best = mdes.latency(operations[i].opclass)
        for succ, delay in graph.succs[i]:
            candidate = delay + graph.height[succ]
            if candidate > best:
                best = candidate
        graph.height[i] = best
