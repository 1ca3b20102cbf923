"""Tests for sweep cuts (against the direct conductance formula),
clustering, and power-law tooling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.clustering import (
    global_clustering_coefficient,
    has_discernible_communities,
    sampled_clustering_coefficient,
)
from repro.community.powerlaw import (
    fit_power_law_exponent,
    harmonic_partial_sum,
    power_law_coefficient,
    ppr_power_law_constants,
)
from repro.community.sweep import sweep_cut
from repro.datasets.sbm import two_block_sbm
from repro.graph.digraph import DynamicDiGraph

from tests.conftest import random_graph
from tests.oracles import conductance, external_edges, power_iteration_ppr, volume


class TestConductance:
    def test_volume(self, diamond_graph):
        assert volume(diamond_graph, {0}) == 2
        assert volume(diamond_graph, {0, 1}) == 4

    def test_external_edges(self, diamond_graph):
        assert external_edges(diamond_graph, {0}) == 2
        assert external_edges(diamond_graph, {0, 1, 2}) == 2

    def test_perfect_community_zero(self, disconnected_graph):
        assert conductance(disconnected_graph, {0, 1}) == 0.0

    def test_degenerate_cases(self, diamond_graph):
        assert conductance(diamond_graph, set()) == 1.0
        # The full vertex set has no external edges but also no complement.
        assert conductance(diamond_graph, set(diamond_graph.vertices())) == 1.0

    def test_value_matches_definition(self):
        g = two_block_sbm(30, 5.0, seed=1)
        block = set(range(30))
        phi = conductance(g, block)
        expected = external_edges(g, block) / min(
            volume(g, block), 2 * g.num_edges - volume(g, block)
        )
        assert phi == pytest.approx(expected)

    def test_block_beats_random_set(self):
        import random

        g = two_block_sbm(40, 6.0, seed=2)
        block = set(range(40))
        rng = random.Random(0)
        scattered = set(rng.sample(range(80), 40))
        assert conductance(g, block) < conductance(g, scattered)


class TestSweepCut:
    def test_recovers_sbm_block(self):
        g = two_block_sbm(40, 8.0, seed=3)
        ppr = power_iteration_ppr(g, 0, alpha=0.1)
        community, phi = sweep_cut(g, ppr)
        block = set(range(40))
        overlap = len(community & block) / max(len(community), 1)
        assert overlap > 0.8
        assert phi < 0.3

    def test_empty_vector(self, diamond_graph):
        assert sweep_cut(diamond_graph, {}) == (set(), 1.0)

    def test_max_size_respected(self):
        g = two_block_sbm(30, 6.0, seed=4)
        ppr = power_iteration_ppr(g, 0, alpha=0.1)
        community, _ = sweep_cut(g, ppr, max_size=5)
        assert len(community) <= 5

    def test_incremental_matches_direct(self):
        """The sweep's incremental conductance equals the direct formula."""
        g = random_graph(25, 70, seed=6)
        source = next(iter(g.vertices()))
        ppr = power_iteration_ppr(g, source, alpha=0.15)
        ranked = sorted(
            ((value / max(g.degree(v), 1), v) for v, value in ppr.items()),
            reverse=True,
        )
        best_direct = min(
            (conductance(g, {v for _, v in ranked[:k]}) for k in range(1, len(ranked) + 1)),
            default=1.0,
        )
        _, best_sweep = sweep_cut(g, ppr)
        assert best_sweep == pytest.approx(best_direct)


class TestClustering:
    def test_triangle(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 0)])
        assert global_clustering_coefficient(g) == pytest.approx(1.0)

    def test_star_zero(self):
        g = DynamicDiGraph(edges=[(0, i) for i in range(1, 6)])
        assert global_clustering_coefficient(g) == 0.0

    def test_direction_ignored(self):
        a = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 0)])
        b = DynamicDiGraph(edges=[(1, 0), (1, 2), (2, 0)])
        assert global_clustering_coefficient(a) == pytest.approx(
            global_clustering_coefficient(b)
        )

    def test_sampled_close_to_exact(self):
        g = two_block_sbm(50, 8.0, seed=5)
        exact = global_clustering_coefficient(g)
        sampled = sampled_clustering_coefficient(g, num_samples=20_000, seed=1)
        assert sampled == pytest.approx(exact, abs=0.02)

    def test_sampled_requires_positive_samples(self, line_graph):
        with pytest.raises(ValueError):
            sampled_clustering_coefficient(line_graph, num_samples=0)

    def test_sampled_degenerate_graph(self, line_graph):
        # No vertex has two neighbors on a 2-vertex graph.
        g = DynamicDiGraph(edges=[(0, 1)])
        assert sampled_clustering_coefficient(g, num_samples=10) == 0.0

    def test_tab2_categorization(self):
        community = two_block_sbm(50, 10.0, seed=6)
        assert has_discernible_communities(community)
        from repro.datasets.scale_free import star_heavy_graph

        no_community = star_heavy_graph(600, num_hubs=4, seed=6)
        assert not has_discernible_communities(no_community)


class TestPowerLaw:
    def test_harmonic_exact_small(self):
        assert harmonic_partial_sum(3, 1.0) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_harmonic_zero_n(self):
        assert harmonic_partial_sum(0, 0.5) == 0.0

    def test_harmonic_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            harmonic_partial_sum(10, -0.5)

    @pytest.mark.parametrize("n,beta", [(500, 0.3), (5000, 0.7), (10**6, 0.5)])
    def test_harmonic_monotone_in_n(self, n, beta):
        assert harmonic_partial_sum(n, beta) < harmonic_partial_sum(2 * n, beta)

    def test_coefficient_normalizes(self):
        n, beta = 200, 0.4
        c = power_law_coefficient(n, beta)
        assert c * harmonic_partial_sum(n, beta) == pytest.approx(1.0)

    def test_fit_recovers_exponent(self):
        import random

        rng = random.Random(0)
        gamma = 2.5
        # Inverse-CDF sampling of a discrete Pareto tail. The fit is
        # evaluated above the discretization-bias region (d_min = 10).
        degrees = [int(2 * (1 - rng.random()) ** (-1 / (gamma - 1))) for _ in range(20_000)]
        fitted = fit_power_law_exponent(degrees, d_min=10)
        assert fitted == pytest.approx(gamma, abs=0.25)

    def test_fit_degenerate_returns_default(self):
        assert fit_power_law_exponent([1, 1]) == 3.0

    def test_constants_beta_in_range(self):
        for degrees in ([3] * 100, [1, 2, 4, 8, 16, 32] * 30):
            beta, c = ppr_power_law_constants(degrees, 1000)
            assert 0.05 <= beta <= 0.95
            assert c > 0

    def test_concentrated_degrees_give_small_beta(self):
        """Degree-concentrated graphs (communities) must fit a flatter PPR
        power law than heavy-tailed ones — the cost model's key signal."""
        concentrated = [12, 13, 11, 12, 14, 12, 13] * 50
        import random

        rng = random.Random(1)
        heavy = [int(2 * (1 - rng.random()) ** (-1 / 1.3)) for _ in range(350)]
        beta_conc, _ = ppr_power_law_constants(concentrated, 1000)
        beta_heavy, _ = ppr_power_law_constants(heavy, 1000)
        assert beta_conc < beta_heavy


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 300), beta=st.floats(0.05, 0.95))
def test_property_harmonic_positive_and_bounded(n, beta):
    h = harmonic_partial_sum(n, beta)
    assert 1.0 <= h <= n
