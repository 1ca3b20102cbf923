"""Tests for traversal primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import (
    bfs_distances,
    bfs_edge_access_trace,
    bfs_reachable,
    estimate_diameter,
    is_reachable_bfs,
    reverse_bfs_reachable,
    topological_order,
)

from tests.conftest import random_graph


class TestReachableSets:
    def test_line(self, line_graph):
        assert bfs_reachable(line_graph, 0) == {0, 1, 2, 3, 4}
        assert bfs_reachable(line_graph, 3) == {3, 4}

    def test_reverse(self, line_graph):
        assert reverse_bfs_reachable(line_graph, 4) == {0, 1, 2, 3, 4}
        assert reverse_bfs_reachable(line_graph, 0) == {0}

    def test_cycle(self, cycle_graph):
        assert bfs_reachable(cycle_graph, 2) == {0, 1, 2, 3, 4}

    def test_missing_vertex(self):
        assert bfs_reachable(DynamicDiGraph(), 0) == set()
        assert reverse_bfs_reachable(DynamicDiGraph(), 0) == set()

    def test_forward_reverse_duality(self):
        g = random_graph(30, 60, seed=3)
        for v in list(g.vertices())[:10]:
            fwd = bfs_reachable(g, v)
            for w in g.vertices():
                assert (w in fwd) == (v in reverse_bfs_reachable(g, w))


class TestIsReachable:
    def test_trivial_self(self, line_graph):
        assert is_reachable_bfs(line_graph, 2, 2)

    def test_line_directions(self, line_graph):
        assert is_reachable_bfs(line_graph, 0, 4)
        assert not is_reachable_bfs(line_graph, 4, 0)

    def test_missing_endpoints(self, line_graph):
        assert not is_reachable_bfs(line_graph, 0, 99)
        assert not is_reachable_bfs(line_graph, 99, 0)

    def test_diamond(self, diamond_graph):
        assert is_reachable_bfs(diamond_graph, 0, 3)
        assert not is_reachable_bfs(diamond_graph, 1, 2)

    def test_disconnected(self, disconnected_graph):
        assert not is_reachable_bfs(disconnected_graph, 0, 10)


class TestDistances:
    def test_line(self, line_graph):
        assert bfs_distances(line_graph, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_reverse_direction(self, line_graph):
        assert bfs_distances(line_graph, 4, forward=False)[0] == 4

    def test_unreachable_absent(self, diamond_graph):
        dist = bfs_distances(diamond_graph, 1)
        assert 2 not in dist
        assert dist[3] == 1

    def test_missing_source(self):
        assert bfs_distances(DynamicDiGraph(), 7) == {}


class TestEdgeAccessTrace:
    def test_trace_stops_at_target(self, line_graph):
        trace = bfs_edge_access_trace(line_graph, 0, 2)
        assert trace == [1, 2]

    def test_trace_without_target_covers_edges(self, diamond_graph):
        trace = bfs_edge_access_trace(diamond_graph, 0)
        assert len(trace) == 4  # every edge accessed exactly once

    def test_trace_counts_revisits(self):
        g = DynamicDiGraph(edges=[(0, 1), (0, 2), (1, 2), (2, 1)])
        trace = bfs_edge_access_trace(g, 0)
        assert len(trace) == 4


class TestDfsAndTopo:
    def test_topological_order(self, diamond_graph):
        order = topological_order(diamond_graph)
        pos = {v: i for i, v in enumerate(order)}
        for u, v in diamond_graph.edges():
            assert pos[u] < pos[v]

    def test_topological_rejects_cycle(self, cycle_graph):
        with pytest.raises(ValueError):
            topological_order(cycle_graph)


class TestDiameter:
    def test_line_diameter(self, line_graph):
        assert estimate_diameter(line_graph, [0]) == 4

    def test_is_lower_bound(self):
        g = random_graph(40, 80, seed=9)
        est = estimate_diameter(g, list(g.vertices())[:5])
        full = estimate_diameter(g, g.vertices())
        assert est <= full


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
def test_property_reachability_transitive(seed, n):
    """If a->b and b->c by BFS, then a->c."""
    g = random_graph(n, 2 * n, seed)
    vs = list(g.vertices())
    a, b, c = vs[0], vs[len(vs) // 2], vs[-1]
    if is_reachable_bfs(g, a, b) and is_reachable_bfs(g, b, c):
        assert is_reachable_bfs(g, a, c)
