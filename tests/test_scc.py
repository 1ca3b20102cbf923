"""Tests for Tarjan SCC and condensation."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import condensation, strongly_connected_components

from tests.conftest import random_graph
from tests.oracles import is_dag, subgraph


def _as_nx(g: DynamicDiGraph) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


class TestTarjan:
    def test_single_cycle(self, cycle_graph):
        comps = strongly_connected_components(cycle_graph)
        assert len(comps) == 1
        assert set(comps[0]) == {0, 1, 2, 3, 4}

    def test_line_all_singletons(self, line_graph):
        comps = strongly_connected_components(line_graph)
        assert len(comps) == 5
        assert all(len(c) == 1 for c in comps)

    def test_two_sccs(self, two_scc_graph):
        comps = {frozenset(c) for c in strongly_connected_components(two_scc_graph)}
        assert comps == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_reverse_topological_emission(self, two_scc_graph):
        comps = strongly_connected_components(two_scc_graph)
        # The sink component {3,4,5} must be emitted before {0,1,2}.
        assert set(comps[0]) == {3, 4, 5}

    def test_empty_graph(self):
        assert strongly_connected_components(DynamicDiGraph()) == []

    def test_deep_path_no_recursion_error(self):
        n = 50_000
        g = DynamicDiGraph(edges=[(i, i + 1) for i in range(n)])
        comps = strongly_connected_components(g)
        assert len(comps) == n + 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    def test_property_matches_networkx(self, seed, n):
        g = random_graph(n, 3 * n, seed)
        ours = {frozenset(c) for c in strongly_connected_components(g)}
        reference = {
            frozenset(c) for c in nx.strongly_connected_components(_as_nx(g))
        }
        assert ours == reference


class TestTarjanWithin:
    def test_restriction_ignores_edges_leaving_the_set(self, cycle_graph):
        # 0 -> 1 -> 2 -> 3 -> 4 -> 0: without 4 the rest is a path
        comps = strongly_connected_components(cycle_graph, within={0, 1, 2, 3})
        assert comps == [[3], [2], [1], [0]]  # sinks first

    def test_whole_component_stays_whole(self, two_scc_graph):
        comps = strongly_connected_components(two_scc_graph, within={3, 4, 5})
        assert [set(c) for c in comps] == [{3, 4, 5}]

    def test_empty_set(self, cycle_graph):
        assert strongly_connected_components(cycle_graph, within=set()) == []

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        keep=st.sets(st.integers(0, 29)),
    )
    def test_property_matches_induced_subgraph(self, seed, n, keep):
        g = random_graph(n, 3 * n, seed)
        keep = {v for v in keep if v in g}
        ours = strongly_connected_components(g, within=keep)
        sub = subgraph(g, keep)
        assert {frozenset(c) for c in ours} == {
            frozenset(c) for c in strongly_connected_components(sub)
        }
        position = {v: i for i, comp in enumerate(ours) for v in comp}
        for u, v in sub.edges():
            assert position[v] <= position[u]  # reverse topological


class TestCondensation:
    def test_two_scc_condensation(self, two_scc_graph):
        dag, scc_of, comps = condensation(two_scc_graph)
        assert dag.num_vertices == 2
        assert dag.num_edges == 1
        cu, cv = scc_of[0], scc_of[3]
        assert dag.has_edge(cu, cv)

    def test_condensation_is_dag(self):
        g = random_graph(25, 80, seed=5)
        dag, _, _ = condensation(g)
        assert is_dag(dag)

    def test_membership_partition(self):
        g = random_graph(20, 50, seed=2)
        _, scc_of, comps = condensation(g)
        seen = [v for comp in comps for v in comp]
        assert sorted(seen) == sorted(g.vertices())
        for cid, comp in enumerate(comps):
            for v in comp:
                assert scc_of[v] == cid

    def test_parallel_inter_scc_edges_collapse(self):
        g = DynamicDiGraph(
            edges=[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)]
        )
        dag, _, _ = condensation(g)
        assert dag.num_edges == 1


class TestIsDag:
    def test_line_is_dag(self, line_graph):
        assert is_dag(line_graph)

    def test_cycle_is_not(self, cycle_graph):
        assert not is_dag(cycle_graph)

    def test_self_loop_is_not(self):
        assert not is_dag(DynamicDiGraph(edges=[(0, 0)]))
