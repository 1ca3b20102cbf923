"""Tests for the dataset substrate: generators, Highschool, temporal
synthesis, and the Tab. II analog registry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.clustering import global_clustering_coefficient
from repro.datasets.highschool import (
    INTER_DESTINATION,
    INTRA_DESTINATION,
    SOURCE,
    highschool_graph,
)
from repro.datasets.registry import (
    COMMUNITY,
    DATASET_ORDER,
    NO_COMMUNITY,
    REGISTRY,
    load_analog,
)
from repro.datasets.sbm import planted_partition_graph, sbm_graph, two_block_sbm
from repro.datasets.scale_free import (
    erdos_renyi_graph,
    preferential_attachment_graph,
    star_heavy_graph,
)
from repro.datasets.temporal import temporal_stream_for_graph
from repro.dynamic.events import materialize
from repro.graph.traversal import is_reachable_bfs


class TestSBM:
    def test_two_block_sizes(self):
        g = two_block_sbm(50, 5.0, seed=1)
        assert g.num_vertices == 100

    def test_average_degree_close(self):
        g = two_block_sbm(200, 6.0, seed=2)
        assert g.average_degree == pytest.approx(6.0, rel=0.15)

    def test_intra_block_denser(self):
        g = two_block_sbm(100, 8.0, seed=3)
        intra = sum(1 for u, v in g.edges() if (u < 100) == (v < 100))
        inter = g.num_edges - intra
        assert intra > 3 * inter

    def test_deterministic_seed(self):
        assert two_block_sbm(30, 4.0, seed=7) == two_block_sbm(30, 4.0, seed=7)

    def test_no_self_loops(self):
        g = two_block_sbm(40, 5.0, seed=4)
        assert all(u != v for u, v in g.edges())

    def test_validation(self):
        with pytest.raises(ValueError):
            two_block_sbm(1, 5.0)
        with pytest.raises(ValueError):
            two_block_sbm(50, -1.0)
        with pytest.raises(ValueError):
            two_block_sbm(10, 500.0)  # probability would exceed 1

    def test_general_sbm_shape_validation(self):
        with pytest.raises(ValueError):
            sbm_graph([10, 10], [[0.1]])

    def test_planted_partition(self):
        g = planted_partition_graph(4, 25, 0.2, 0.01, seed=5)
        assert g.num_vertices == 100
        assert global_clustering_coefficient(g) > 0.05

    def test_probability_one_block(self):
        g = sbm_graph([4], [[1.0]], seed=0)
        assert g.num_edges == 12  # complete directed graph minus self-loops


class TestScaleFree:
    def test_pa_size_and_density(self):
        g = preferential_attachment_graph(500, 3, seed=1)
        assert g.num_vertices == 500
        assert g.num_edges <= 3 * 500

    def test_pa_has_hubs(self):
        g = preferential_attachment_graph(800, 2, seed=2)
        max_in = max(g.in_degree(v) for v in g.vertices())
        assert max_in > 20  # heavy tail

    def test_pa_low_clustering(self):
        g = preferential_attachment_graph(600, 2, seed=3)
        assert global_clustering_coefficient(g) < 0.02

    def test_pa_validation(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph(0)
        with pytest.raises(ValueError):
            preferential_attachment_graph(10, 0)

    def test_star_heavy_hub_degrees(self):
        g = star_heavy_graph(400, num_hubs=4, seed=4)
        hubs = sorted(g.vertices(), key=g.out_degree, reverse=True)[:4]
        assert all(g.out_degree(h) > 50 for h in hubs)

    def test_star_heavy_validation(self):
        with pytest.raises(ValueError):
            star_heavy_graph(5, num_hubs=10)

    def test_erdos_renyi_density(self):
        g = erdos_renyi_graph(400, 3.0, seed=5)
        assert g.average_degree == pytest.approx(3.0, rel=0.2)

    def test_erdos_renyi_degenerate(self):
        assert erdos_renyi_graph(10, 0.0, seed=0).num_edges == 0
        with pytest.raises(ValueError):
            erdos_renyi_graph(1, 1.0)


class TestHighschool:
    def test_paper_scale(self, highschool):
        assert highschool.num_vertices == 70
        assert highschool.num_edges == 366

    def test_deterministic(self):
        assert highschool_graph() == highschool_graph()

    def test_both_queries_positive(self, highschool):
        assert is_reachable_bfs(highschool, SOURCE, INTRA_DESTINATION)
        assert is_reachable_bfs(highschool, SOURCE, INTER_DESTINATION)

    def test_query_vertices_in_expected_communities(self):
        assert SOURCE < 35 and INTRA_DESTINATION < 35
        assert INTER_DESTINATION >= 35

    def test_community_structure_present(self, highschool):
        assert global_clustering_coefficient(highschool) > 0.05

    def test_communities_denser_than_cut(self, highschool):
        intra = sum(
            1 for u, v in highschool.edges() if (u < 35) == (v < 35)
        )
        inter = highschool.num_edges - intra
        assert intra > 5 * inter


class TestTemporalSynthesis:
    def test_split_covers_graph(self):
        full = two_block_sbm(40, 5.0, seed=6)
        initial, stream = temporal_stream_for_graph(
            full, initial_fraction=0.3, expiry_fraction=None, seed=1
        )
        final = materialize(initial, stream)
        assert final == full

    def test_initial_fraction_respected(self):
        full = two_block_sbm(40, 5.0, seed=7)
        initial, _ = temporal_stream_for_graph(
            full, initial_fraction=0.5, expiry_fraction=None, seed=2
        )
        assert initial.num_edges == pytest.approx(full.num_edges * 0.5, abs=2)

    def test_expiry_adds_deletions(self):
        full = two_block_sbm(40, 5.0, seed=8)
        _, stream = temporal_stream_for_graph(
            full, initial_fraction=0.2, expiry_fraction=0.1, seed=3
        )
        assert stream.num_deletions > 0

    def test_validation(self):
        full = two_block_sbm(20, 4.0, seed=9)
        with pytest.raises(ValueError):
            temporal_stream_for_graph(full, initial_fraction=1.5)
        with pytest.raises(ValueError):
            temporal_stream_for_graph(full, time_span=0)


class TestRegistry:
    def test_twelve_datasets(self):
        assert len(REGISTRY) == 12
        assert set(DATASET_ORDER) == set(REGISTRY)

    def test_category_split_matches_tab2(self):
        community = [c for c in DATASET_ORDER if REGISTRY[c].category == COMMUNITY]
        assert community == ["EN", "EP", "DF", "FL", "LJ", "FR"]

    def test_load_analog(self):
        analog, initial, stream = load_analog("EN", seed=0)
        assert analog.code == "EN"
        assert initial.num_edges > 0
        assert len(stream) > 0

    def test_unknown_code(self):
        with pytest.raises(KeyError):
            load_analog("XX")

    def test_case_insensitive(self):
        analog, _, _ = load_analog("en")
        assert analog.code == "EN"

    def test_explicit_deletion_flavour(self):
        _, _, stream = load_analog("WD", seed=0)
        assert stream.num_deletions > 0

    @pytest.mark.parametrize("code", ["EN", "FL"])
    def test_community_analogs_cross_threshold(self, code):
        _, initial, stream = load_analog(code, seed=0)
        final = materialize(initial, stream)
        assert global_clustering_coefficient(final) >= 0.01

    @pytest.mark.parametrize("code", ["WT", "WG", "ZS"])
    def test_no_community_analogs_below_threshold(self, code):
        _, initial, stream = load_analog(code, seed=0)
        final = materialize(initial, stream)
        assert global_clustering_coefficient(final) < 0.01

    def test_sizes_follow_ordering(self):
        """FR and DL are the largest of their categories, as in Tab. II."""
        sizes = {}
        for code in ("EN", "FR", "WT", "DL"):
            _, initial, stream = load_analog(code, seed=0)
            sizes[code] = materialize(initial, stream).num_vertices
        assert sizes["FR"] > sizes["EN"]
        assert sizes["DL"] > sizes["WT"]
