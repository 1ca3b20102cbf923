"""Correctness tests for the full IFCA framework (Alg. 2).

Theorem 1 is the contract: IFCA returns true iff s -> t, on every graph,
under every parameter variant. The BFS oracle is the referee throughout.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ifca
from repro.core.ifca import IFCA, IFCAMethod
from repro.core.params import IFCAParams
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs

from tests.conftest import random_graph

VARIANTS = {
    "default": IFCAParams(),
    "contract_only": IFCAParams(use_cost_model=False),
    "bibfs_only": IFCAParams(force_switch_round=0),
    "switch_late": IFCAParams(force_switch_round=3),
    "backward_push": IFCAParams(push_style="backward"),
    "greedy_order": IFCAParams(push_order="greedy"),
    "tiny_epsilon": IFCAParams(epsilon_pre=1e-6, epsilon_init=1e-4),
    "large_step": IFCAParams(step=1000.0),
}


def assert_matches_oracle(graph, params, queries):
    engine = IFCA(graph, params)
    for s, t in queries:
        expected = is_reachable_bfs(graph, s, t)
        assert engine.is_reachable(s, t) == expected, (
            f"IFCA({params}) wrong on {s}->{t}: expected {expected}"
        )


def sample_queries(graph, count, seed):
    rng = random.Random(seed)
    vs = list(graph.vertices())
    return [(rng.choice(vs), rng.choice(vs)) for _ in range(count)]


class TestBasics:
    def test_trivial_same_vertex(self, line_graph):
        assert IFCA(line_graph).is_reachable(2, 2)

    def test_missing_vertices(self, line_graph):
        engine = IFCA(line_graph)
        assert not engine.is_reachable(0, 99)
        assert not engine.is_reachable(99, 0)

    def test_line_directions(self, line_graph):
        engine = IFCA(line_graph)
        assert engine.is_reachable(0, 4)
        assert not engine.is_reachable(4, 0)

    def test_negative_ids_rejected(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        engine = IFCA(g)
        with pytest.raises(ValueError):
            engine.insert_edge(-3, 0)

    def test_dangling_source(self):
        g = DynamicDiGraph(edges=[(1, 2)])
        g.add_vertex(0)
        engine = IFCA(g)
        assert not engine.is_reachable(0, 2)

    def test_dangling_target(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        g.add_vertex(5)
        engine = IFCA(g)
        assert not engine.is_reachable(0, 5)

    def test_self_loops_ignored_for_reachability(self):
        g = DynamicDiGraph(edges=[(0, 0), (0, 1), (1, 1)])
        engine = IFCA(g)
        assert engine.is_reachable(0, 1)
        assert not engine.is_reachable(1, 0)


class TestStats:
    def test_stats_populated(self, highschool):
        engine = IFCA(highschool)
        answer, stats = engine.query_with_stats(0, 17)
        assert answer is True
        assert stats.result is True
        assert stats.rounds >= 1
        assert stats.edge_accesses > 0
        assert stats.terminated_by in {
            "guided",
            "contraction",
            "exhausted",
            "bibfs",
        }

    def test_trivial_stats(self, highschool):
        _, stats = IFCA(highschool).query_with_stats(3, 3)
        assert stats.terminated_by == "trivial"
        assert stats.edge_accesses == 0

    def test_forced_switch_marks_bibfs(self, highschool):
        engine = IFCA(highschool, IFCAParams(force_switch_round=0))
        _, stats = engine.query_with_stats(0, 17)
        assert stats.switched_to_bibfs
        assert stats.terminated_by == "bibfs"

    def test_contract_only_never_switches(self, highschool):
        engine = IFCA(highschool, IFCAParams(use_cost_model=False))
        _, stats = engine.query_with_stats(0, 55)
        assert not stats.switched_to_bibfs


@pytest.mark.parametrize("variant", sorted(VARIANTS))
class TestOracleAcrossVariants:
    def test_highschool(self, variant, highschool):
        assert_matches_oracle(
            highschool, VARIANTS[variant], sample_queries(highschool, 60, 1)
        )

    def test_sbm(self, variant, sbm_small):
        assert_matches_oracle(
            sbm_small, VARIANTS[variant], sample_queries(sbm_small, 40, 2)
        )

    def test_preferential_attachment(self, variant, pa_small):
        assert_matches_oracle(
            pa_small, VARIANTS[variant], sample_queries(pa_small, 40, 3)
        )

    def test_star(self, variant, star_small):
        assert_matches_oracle(
            star_small, VARIANTS[variant], sample_queries(star_small, 40, 4)
        )

    def test_erdos_renyi(self, variant, er_small):
        assert_matches_oracle(
            er_small, VARIANTS[variant], sample_queries(er_small, 40, 5)
        )


class TestDynamicUpdates:
    def test_insert_enables_reachability(self):
        g = DynamicDiGraph(edges=[(0, 1), (2, 3)])
        engine = IFCA(g)
        assert not engine.is_reachable(0, 3)
        engine.insert_edge(1, 2)
        assert engine.is_reachable(0, 3)

    def test_delete_breaks_reachability(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        engine = IFCA(g)
        assert engine.is_reachable(0, 2)
        engine.delete_edge(1, 2)
        assert not engine.is_reachable(0, 2)

    def test_mixed_update_stream_matches_oracle(self):
        rng = random.Random(11)
        g = DynamicDiGraph(vertices=range(25))
        engine = IFCA(g)
        edges = set()
        for step in range(300):
            u, v = rng.randrange(25), rng.randrange(25)
            if u == v:
                continue
            if (u, v) in edges and rng.random() < 0.4:
                engine.delete_edge(u, v)
                edges.discard((u, v))
            else:
                engine.insert_edge(u, v)
                edges.add((u, v))
            if step % 20 == 0:
                s, t = rng.randrange(25), rng.randrange(25)
                assert engine.is_reachable(s, t) == is_reachable_bfs(g, s, t)

    def test_epsilon_default_tracks_edge_count(self):
        g = DynamicDiGraph(edges=[(i, i + 1) for i in range(50)])
        engine = IFCA(g)
        first = engine._resolve_params()
        assert first.epsilon_pre == pytest.approx(100.0 / 50)
        engine.insert_edge(0, 50)
        second = engine._resolve_params()
        assert second.epsilon_pre == pytest.approx(100.0 / 51)


class TestMethodWrapper:
    def test_interface(self, highschool):
        method = IFCAMethod(highschool.copy())
        assert method.name == "IFCA"
        assert method.exact
        assert method.supports_deletions
        assert method.query(0, 17)

    def test_wrapper_updates(self):
        method = IFCAMethod(DynamicDiGraph(edges=[(0, 1)]))
        method.insert_edge(1, 2)
        assert method.query(0, 2)
        method.delete_edge(0, 1)
        assert not method.query(0, 2)


class TestTermination:
    def test_max_rounds_fallback_is_exact(self, sbm_small, monkeypatch):
        monkeypatch.setattr(ifca, "MAX_ROUNDS", 2)
        params = IFCAParams(use_cost_model=False)
        assert_matches_oracle(sbm_small, params, sample_queries(sbm_small, 30, 6))

    def test_two_isolated_cliques(self):
        """Negative query between mutually unreachable dense cores relies
        on contraction-based exhaustion."""
        edges = []
        for base in (0, 10):
            for i in range(8):
                for j in range(8):
                    if i != j:
                        edges.append((base + i, base + j))
        g = DynamicDiGraph(edges=edges)
        params = IFCAParams(use_cost_model=False, epsilon_pre=1e-3)
        engine = IFCA(g, params)
        answer, stats = engine.query_with_stats(0, 12)
        assert answer is False
        assert stats.terminated_by == "exhausted"
        assert stats.contractions >= 1

    def test_exhaustion_with_dangling_source(self):
        g = DynamicDiGraph(edges=[(1, 2), (2, 3)])
        g.add_vertex(0)
        engine = IFCA(g, IFCAParams(use_cost_model=False))
        answer, stats = engine.query_with_stats(0, 3)
        assert answer is False


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 24),
    density=st.floats(0.5, 4.0),
)
def test_property_ifca_matches_bfs_oracle(seed, n, density):
    """Theorem 1 on random graphs, random endpoints, default parameters."""
    g = random_graph(n, int(density * n), seed)
    rng = random.Random(seed + 1)
    vs = list(g.vertices())
    engine = IFCA(g)
    for _ in range(5):
        s, t = rng.choice(vs), rng.choice(vs)
        assert engine.is_reachable(s, t) == is_reachable_bfs(g, s, t)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_contract_variant_matches_oracle(seed):
    """Theorem 1 with the cost model disabled (pure contraction path)."""
    g = random_graph(15, 40, seed)
    rng = random.Random(seed + 2)
    vs = list(g.vertices())
    engine = IFCA(g, IFCAParams(use_cost_model=False))
    for _ in range(4):
        s, t = rng.choice(vs), rng.choice(vs)
        assert engine.is_reachable(s, t) == is_reachable_bfs(g, s, t)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 14), st.integers(0, 14)),
        max_size=40,
    ),
)
def test_property_dynamic_updates_match_oracle(seed, ops):
    """Random update streams: IFCA's answers track the evolving graph."""
    g = random_graph(15, 20, seed)
    engine = IFCA(g)
    rng = random.Random(seed)
    for insert, u, v in ops:
        if u == v:
            continue
        if insert:
            engine.insert_edge(u, v)
        else:
            engine.delete_edge(u, v)
    vs = list(g.vertices())
    for _ in range(5):
        s, t = rng.choice(vs), rng.choice(vs)
        assert engine.is_reachable(s, t) == is_reachable_bfs(g, s, t)
