"""Adversarial structure tests for IFCA.

Graph shapes chosen to stress specific mechanisms: deep chains (round
budget), long cycles (residue circulation), dense bipartite layers
(frontier explosion), heavy self-loops (share retention), hub bombs
(degree-normalized thresholds), and repeated contraction chains.
Every case is validated against the BFS oracle under multiple variants.
"""

import pytest

from repro.core import ifca
from repro.core.ifca import IFCA
from repro.core.params import IFCAParams
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs

VARIANTS = [
    IFCAParams(),
    IFCAParams(use_cost_model=False),
    IFCAParams(use_cost_model=False, push_style="backward"),
    IFCAParams(use_cost_model=False, push_order="greedy"),
]


def check(graph, pairs):
    for params in VARIANTS:
        engine = IFCA(graph, params)
        for s, t in pairs:
            assert engine.is_reachable(s, t) == is_reachable_bfs(graph, s, t), (
                f"{params} wrong on {s}->{t}"
            )


class TestDeepStructures:
    def test_long_chain(self):
        n = 3000
        g = DynamicDiGraph(edges=[(i, i + 1) for i in range(n)])
        check(g, [(0, n), (n, 0), (1, n - 1), (n // 2, n // 4)])

    def test_long_cycle(self):
        n = 1000
        g = DynamicDiGraph(edges=[(i, (i + 1) % n) for i in range(n)])
        check(g, [(0, n - 1), (n - 1, 0), (17, 16)])

    def test_chain_of_cliques(self):
        """Communities in a row: each contraction should absorb one."""
        edges = []
        k, size = 6, 8
        for c in range(k):
            base = c * size
            for i in range(size):
                for j in range(size):
                    if i != j:
                        edges.append((base + i, base + j))
            if c + 1 < k:
                edges.append((base, base + size))  # one-way bridge
        g = DynamicDiGraph(edges=edges)
        check(g, [(0, (k - 1) * size + 3), ((k - 1) * size, 0)])

    def test_contraction_count_on_clique_chain(self):
        edges = []
        k, size = 5, 10
        for c in range(k):
            base = c * size
            for i in range(size):
                for j in range(size):
                    if i != j:
                        edges.append((base + i, base + j))
            if c + 1 < k:
                edges.append((base, base + size))
        g = DynamicDiGraph(edges=edges)
        engine = IFCA(g, IFCAParams(use_cost_model=False, epsilon_pre=1e-3))
        # A negative query (bridges are one-way) cannot terminate early:
        # it must contract communities until one side exhausts.
        answer, stats = engine.query_with_stats((k - 1) * size + 1, 0)
        assert answer is False
        assert stats.contractions >= 1
        assert stats.terminated_by == "exhausted"


class TestWideStructures:
    def test_complete_bipartite_layers(self):
        # 3 layers of 40: frontier explosion between layers.
        edges = []
        for a in range(40):
            for b in range(40):
                edges.append((a, 40 + b))
                edges.append((40 + a, 80 + b))
        g = DynamicDiGraph(edges=edges)
        check(g, [(0, 85), (85, 0), (45, 81)])

    def test_hub_bomb(self):
        """One vertex with 2000 out-edges: the push threshold must defer
        it without breaking exactness."""
        edges = [(0, i) for i in range(1, 2001)]
        edges += [(i, i + 3000) for i in range(1, 50)]
        g = DynamicDiGraph(edges=edges)
        check(g, [(0, 3001), (0, 2000), (3001, 0), (5, 3005)])

    def test_in_hub(self):
        edges = [(i, 0) for i in range(1, 1001)]
        edges += [(0, 5000)]
        g = DynamicDiGraph(edges=edges)
        check(g, [(3, 5000), (5000, 3)])


class TestDegenerate:
    def test_self_loop_farm(self):
        g = DynamicDiGraph(edges=[(i, i) for i in range(50)])
        g.add_edge(0, 1)
        check(g, [(0, 1), (1, 0), (2, 3)])

    def test_two_vertex_pingpong(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 0)])
        check(g, [(0, 1), (1, 0)])

    def test_isolated_vertices_everywhere(self):
        g = DynamicDiGraph(vertices=range(100))
        g.add_edge(10, 20)
        check(g, [(10, 20), (20, 10), (0, 99), (10, 99)])

    def test_extreme_parameters(self, monkeypatch):
        monkeypatch.setattr(ifca, "MAX_ROUNDS", 50)
        g = DynamicDiGraph(edges=[(i, i + 1) for i in range(20)])
        for params in (
            IFCAParams(alpha=0.99, use_cost_model=False),
            IFCAParams(alpha=0.01, use_cost_model=False),
            IFCAParams(epsilon_pre=1e-12, epsilon_init=1e-10, use_cost_model=False),
            IFCAParams(step=1.0001, use_cost_model=False),
        ):
            engine = IFCA(g, params)
            assert engine.is_reachable(0, 20)
            assert not engine.is_reachable(20, 0)

    def test_repeated_queries_share_engine(self):
        """Per-query state must not leak between queries on one engine."""
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (3, 4)])
        engine = IFCA(g, IFCAParams(use_cost_model=False))
        for _ in range(5):
            assert engine.is_reachable(0, 2)
            assert not engine.is_reachable(0, 4)
            assert not engine.is_reachable(4, 0)

    def test_alternating_updates_and_queries(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        engine = IFCA(g)
        for i in range(1, 60):
            engine.insert_edge(i, i + 1)
            assert engine.is_reachable(0, i + 1)
        for i in range(59, 0, -1):
            engine.delete_edge(i, i + 1)
            assert not engine.is_reachable(0, i + 1)
