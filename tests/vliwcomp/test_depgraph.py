"""Unit tests for repro.vliwcomp.depgraph."""

from repro.isa.operations import (
    OpClass,
    make_branch,
    make_int,
    make_load,
    make_store,
)
from repro.machine.mdes import MachineDescription
from repro.machine.presets import P1111
from repro.vliwcomp.depgraph import build_dependence_graph


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
