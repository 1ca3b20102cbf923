"""Tests for the transitive closure oracle and graph statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.summary import summarize
from repro.graph.closure import TransitiveClosure
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs

from tests.conftest import random_graph


class TestTransitiveClosure:
    def test_matches_bfs_on_line(self, line_graph):
        closure = TransitiveClosure(line_graph)
        assert closure.is_reachable(0, 4)
        assert not closure.is_reachable(4, 0)
        assert closure.is_reachable(2, 2)

    def test_cycle_fully_connected(self, cycle_graph):
        closure = TransitiveClosure(cycle_graph)
        for u in range(5):
            for v in range(5):
                assert closure.is_reachable(u, v)

    def test_missing_vertices(self, line_graph):
        closure = TransitiveClosure(line_graph)
        assert not closure.is_reachable(0, 99)
        assert not closure.is_reachable(99, 0)

    def test_reachable_count(self, two_scc_graph):
        closure = TransitiveClosure(two_scc_graph)
        assert closure.reachable_count(0) == 6  # both triangles
        assert closure.reachable_count(3) == 3

    def test_num_reachable_pairs(self, line_graph):
        closure = TransitiveClosure(line_graph)
        # Line 0->1->2->3->4: pairs = 4+3+2+1 = 10.
        assert closure.num_reachable_pairs() == 10

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**5), n=st.integers(2, 20))
    def test_property_matches_bfs_oracle(self, seed, n):
        g = random_graph(n, 3 * n, seed)
        closure = TransitiveClosure(g)
        vs = list(g.vertices())
        for u in vs[:5]:
            for v in vs[:5]:
                assert closure.is_reachable(u, v) == is_reachable_bfs(g, u, v)


class TestSummaries:
    def test_summary_fields(self, two_scc_graph):
        summary = summarize(two_scc_graph)
        assert summary.num_vertices == 6
        assert summary.num_edges == 7
        assert summary.num_sccs == 2
        assert summary.largest_scc == 3
        assert 0 <= summary.reachable_pair_fraction <= 1

    def test_empty_graph(self):
        summary = summarize(DynamicDiGraph())
        assert summary.num_vertices == 0
        assert summary.reachable_pair_fraction == 0.0

    def test_reachable_fraction_complete_cycle(self, cycle_graph):
        assert summarize(cycle_graph).reachable_pair_fraction == pytest.approx(1.0)

    def test_sampled_clustering_path(self, sbm_small):
        exact = summarize(sbm_small, exact_clustering=True)
        sampled = summarize(sbm_small, exact_clustering=False)
        assert sampled.clustering_coefficient == pytest.approx(
            exact.clustering_coefficient, abs=0.03
        )

    def test_community_flag(self, sbm_small):
        from repro.datasets.scale_free import star_heavy_graph

        assert summarize(sbm_small).has_discernible_communities
        # Small PA fixtures have residual clustering; the hub graph at this
        # size is safely below the 0.01 threshold.
        hubs = star_heavy_graph(600, num_hubs=4, seed=6)
        assert not summarize(hubs).has_discernible_communities
