"""Dependence graph construction for basic-block scheduling.

Edges carry minimum issue-cycle separations: a RAW edge from producer to
consumer is the producer's latency; WAW edges force one cycle of
separation; WAR edges allow same-cycle issue (reads happen before writes
within a VLIW instruction).  Memory operations on the same stream are kept
in order (a conservative store/load ordering, as a real compiler without
memory disambiguation would).

A graph depends only on the operation list and the latency table, so
processors that share a latency table can share graphs: the block memo
of :mod:`repro.vliwcomp.compile` builds one per distinct operation list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.isa.operations import OpClass, Operation
from repro.machine.mdes import MachineDescription


@dataclass(frozen=True)
class DependenceGraph:
    """DAG over the operation indexes of one basic block, read-only.

    Op ``succ[i][k]`` may issue no earlier than ``issue(i) +
    delay[i][k]``; ``n_preds[j]`` counts the edges into op ``j``.
    ``height[i]`` is the critical-path height used as the
    list-scheduling priority.  Every field is a tuple of ints (no pair
    tuples), so a memo of thousands of graphs gives the garbage
    collector little to track.
    """

    n_ops: int
    succ: tuple[tuple[int, ...], ...]
    delay: tuple[tuple[int, ...], ...]
    n_preds: tuple[int, ...]
    height: tuple[int, ...]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Every edge as ``(i, j, delay)``, by source op."""
        for i, (succ, delay) in enumerate(zip(self.succ, self.delay)):
            for j, d in zip(succ, delay):
                yield i, j, d


_MEMORY = OpClass.MEMORY
_BRANCH = OpClass.BRANCH


def build_dependence_graph(
    operations: Sequence[Operation], mdes: MachineDescription
) -> DependenceGraph:
    """Build the scheduling DAG for one block's operation list."""
    n = len(operations)
    succ: list[list[int]] = [[] for _ in range(n)]
    delay: list[list[int]] = [[] for _ in range(n)]
    n_preds = [0] * n
    # Result latency of each op, looked up once per block.
    latency = [mdes.latencies[op.opclass] for op in operations]
    last_writer: dict[int, int] = {}
    readers_since_write: dict[int, list[int]] = {}
    last_mem_by_stream: dict[int, int] = {}

    for i, op in enumerate(operations):
        opclass = op.opclass
        # Each edge p -> i: op i may issue no earlier than issue(p) + d.
        for src in op.srcs:
            producer = last_writer.get(src)
            if producer is not None:
                succ[producer].append(i)
                delay[producer].append(latency[producer])
                n_preds[i] += 1
            readers = readers_since_write.get(src)
            if readers is None:
                readers_since_write[src] = [i]
            else:
                readers.append(i)
        for dst in op.dests:
            writer = last_writer.get(dst)
            if writer is not None:
                succ[writer].append(i)
                delay[writer].append(1)  # WAW
                n_preds[i] += 1
            for reader in readers_since_write.get(dst, ()):
                if reader != i:
                    succ[reader].append(i)
                    delay[reader].append(0)  # WAR: same cycle legal
                    n_preds[i] += 1
            last_writer[dst] = i
            readers_since_write[dst] = []
        if opclass is _MEMORY:
            prev = last_mem_by_stream.get(op.stream)
            if prev is not None:
                # Keep same-stream memory operations ordered (one cycle).
                succ[prev].append(i)
                delay[prev].append(1)
                n_preds[i] += 1
            last_mem_by_stream[op.stream] = i
        if opclass is _BRANCH:
            # The branch ends the block: every earlier op must issue no
            # later than the branch's cycle.
            for earlier in succ[:i]:
                earlier.append(i)
            for earlier in delay[:i]:
                earlier.append(0)
            n_preds[i] += i

    # Critical-path heights by a reverse sweep: operation indexes are
    # already topologically ordered (edges only go forward in the list).
    height = [0] * n
    for i in range(n - 1, -1, -1):
        best = latency[i]
        for j, d in zip(succ[i], delay[i]):
            candidate = d + height[j]
            if candidate > best:
                best = candidate
        height[i] = best
    return DependenceGraph(
        n_ops=n,
        succ=tuple(map(tuple, succ)),
        delay=tuple(map(tuple, delay)),
        n_preds=tuple(n_preds),
        height=tuple(height),
    )
