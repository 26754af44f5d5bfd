"""Unit tests for the dependence graphs: the per-block oracle
(repro.oracles.compiler) and the whole-program arrays
(repro.vliwcomp.depgraph) that must match it."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.isa.operations import (
    OP_CLASSES,
    OpClass,
    Operation,
    flat_ops,
    make_branch,
    make_float,
    make_int,
    make_load,
    make_store,
)
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111
from repro.oracles.compiler import build_dependence_graph
from repro.vliwcomp.depgraph import build_graphs


def edges_of(graph):
    return set(graph.edges())


class TestEdges:
    def setup_method(self):
        self.mdes = MachineDescription(P1111)

    def test_raw_edge_carries_producer_latency(self):
        ops = [make_load(1, addr_src=0), make_int(2, (1,))]
        graph = build_dependence_graph(ops, self.mdes)
        # Load latency is 2.
        assert (0, 1, 2) in edges_of(graph)

    def test_waw_edge(self):
        ops = [make_int(1), make_int(1)]
        graph = build_dependence_graph(ops, self.mdes)
        assert (0, 1, 1) in edges_of(graph)

    def test_war_edge_allows_same_cycle(self):
        ops = [make_int(2, (1,)), make_int(1)]
        graph = build_dependence_graph(ops, self.mdes)
        assert (0, 1, 0) in edges_of(graph)

    def test_same_stream_memory_ordering(self):
        ops = [
            make_store(value_src=1, addr_src=2, stream=5),
            make_load(3, addr_src=4, stream=5),
        ]
        graph = build_dependence_graph(ops, self.mdes)
        assert (0, 1, 1) in edges_of(graph)

    def test_different_stream_memory_unordered(self):
        ops = [
            make_store(value_src=1, addr_src=2, stream=5),
            make_load(3, addr_src=4, stream=6),
        ]
        graph = build_dependence_graph(ops, self.mdes)
        assert edges_of(graph) == set()

    def test_branch_depends_on_everything(self):
        ops = [make_int(1), make_int(2), make_branch()]
        graph = build_dependence_graph(ops, self.mdes)
        assert (0, 2, 0) in edges_of(graph)
        assert (1, 2, 0) in edges_of(graph)

    def test_independent_ops_have_no_edges(self):
        ops = [make_int(1, (10,)), make_int(2, (11,))]
        graph = build_dependence_graph(ops, self.mdes)
        assert edges_of(graph) == set()


class TestHeights:
    def test_chain_heights_accumulate_latency(self):
        mdes = MachineDescription(P1111)
        # load (lat 2) -> int (lat 1) -> int (lat 1)
        ops = [make_load(1), make_int(2, (1,)), make_int(3, (2,))]
        graph = build_dependence_graph(ops, mdes)
        assert graph.height[2] == 1
        assert graph.height[1] == 2
        assert graph.height[0] == 4

    def test_height_of_leaf_is_own_latency(self):
        mdes = MachineDescription(P1111)
        graph = build_dependence_graph([make_int(1)], mdes)
        assert graph.height == (1,)


class TestFlatForm:
    def test_fields_are_int_tuples_without_pairs(self):
        ops = [
            make_load(1, addr_src=0, stream=1),
            make_int(2, (1,)),
            make_store(value_src=2, addr_src=0, stream=1),
            make_int(1, (2,)),
            make_branch((1,)),
        ]
        graph = build_dependence_graph(ops, MachineDescription(P1111))
        for per_op in (graph.succ, graph.delay):
            assert isinstance(per_op, tuple) and len(per_op) == len(ops)
            for row in per_op:
                assert isinstance(row, tuple)
                assert all(type(value) is int for value in row)
        assert all(
            len(succ) == len(delay)
            for succ, delay in zip(graph.succ, graph.delay)
        )
        assert isinstance(graph.n_preds, tuple)
        assert isinstance(graph.height, tuple)

    def test_pred_counts_match_edges(self):
        ops = [make_int(1), make_int(1, (1,)), make_int(2, (1, 1)), make_branch()]
        graph = build_dependence_graph(ops, MachineDescription(P1111))
        counts = [0] * len(ops)
        for _, j, _ in graph.edges():
            counts[j] += 1
        assert graph.n_preds == tuple(counts)


def random_block(rng, n):
    """A random block over a small register pool: reuse, ops reading
    their own dest, duplicate srcs, same-stream memory ops and
    mid-block branches."""
    ops = []
    for _ in range(n):
        kind = rng.choice(["int", "float", "load", "store", "branch"])
        srcs = tuple(rng.randrange(6) for _ in range(rng.randrange(3)))
        dest = rng.randrange(6)
        stream = rng.randrange(3)
        if kind == "int":
            ops.append(make_int(dest, srcs))
        elif kind == "float":
            ops.append(make_float(dest, srcs))
        elif kind == "load":
            ops.append(make_load(dest, srcs[0] if srcs else dest, stream))
        elif kind == "store":
            ops.append(make_store(dest, srcs[0] if srcs else dest, stream))
        else:
            ops.append(make_branch(srcs))
    return ops


class TestWholeProgramGraphs:
    """The array graphs of many blocks equal the per-block oracle's:
    the same edge multisets, predecessor counts and heights."""

    @pytest.mark.parametrize("latency_scale", [1, 2])
    def test_random_blocks_match_oracle(self, latency_scale):
        rng = random.Random(5 + latency_scale)
        latencies = {
            cls: latency_scale * lat
            for cls, lat in MachineDescription(P1111).latencies.items()
        }
        mdes = MachineDescription(P1111, latencies=latencies)
        blocks = [random_block(rng, rng.randrange(0, 40)) for _ in range(60)]
        graphs = build_graphs(
            flat_ops(blocks), [latencies[cls] for cls in OP_CLASSES]
        )
        bounds = graphs.ops.bounds
        for k, ops in enumerate(blocks):
            lo, hi = bounds[k], bounds[k + 1]
            want = build_dependence_graph(ops, mdes)
            got = Counter(
                (i - lo, int(graphs.succ[e]) - lo, int(graphs.delay[e]))
                for i in range(lo, hi)
                for e in range(graphs.succ_bounds[i], graphs.succ_bounds[i + 1])
            )
            assert got == Counter(want.edges()), k
            assert graphs.n_preds[lo:hi].tolist() == list(want.n_preds)
            assert graphs.height[lo:hi].tolist() == list(want.height)
            distinct = len({d for op in ops for d in op.dests})
            assert graphs.distinct_dests[k] == distinct

    def test_multiple_dests_and_wide_srcs(self):
        ops = [
            Operation(OpClass.INT, dests=(1, 2), srcs=(3, 4, 5)),
            Operation(OpClass.INT, dests=(3,), srcs=(1, 2, 1)),
            Operation(OpClass.FLOAT, dests=(2, 4), srcs=(3,)),
        ]
        mdes = MachineDescription(P1111)
        graphs = build_graphs(
            flat_ops([ops]), [mdes.latencies[cls] for cls in OP_CLASSES]
        )
        got = Counter(
            (i, int(graphs.succ[e]), int(graphs.delay[e]))
            for i in range(len(ops))
            for e in range(graphs.succ_bounds[i], graphs.succ_bounds[i + 1])
        )
        assert got == Counter(build_dependence_graph(ops, mdes).edges())

    def test_negative_registers_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_ops([[make_int(-1)]])

    def test_empty_program(self):
        graphs = build_graphs(flat_ops([[], []]), [1, 3, 2, 1])
        assert graphs.n_ops == 0
        assert np.array_equal(graphs.distinct_dests, [0, 0])
