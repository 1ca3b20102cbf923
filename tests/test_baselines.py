"""Correctness tests for the competitor methods.

Every exact method (BiBFS, TOL, IP, DAGGER, DBL) must agree with the BFS
oracle on every query, both statically and under dynamic update streams —
including streams engineered to merge and split SCCs, the case the
published TOL/IP maintenance cannot handle and our closure-change
detection must.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.arrow import ArrowMethod, tune_arrow_accuracy
from repro.baselines.bibfs import BiBFSMethod, bibfs_is_reachable
from repro.baselines.dagger import DaggerMethod
from repro.baselines.dbl import DBLMethod
from repro.baselines.ip import IPMethod
from repro.baselines.tol import TOLMethod
from repro.core.stats import QueryStats
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs

from tests.conftest import random_graph

EXACT_FACTORIES = {
    "BiBFS": BiBFSMethod,
    "TOL": TOLMethod,
    "IP": IPMethod,
    "DAGGER": DaggerMethod,
}


def check_all_pairs(method, graph, limit=12):
    vs = list(graph.vertices())[:limit]
    for s in vs:
        for t in vs:
            expected = is_reachable_bfs(graph, s, t)
            assert method.query(s, t) == expected, (
                f"{method.name} wrong on {s}->{t}"
            )


@pytest.mark.parametrize("name", sorted(EXACT_FACTORIES))
class TestExactMethodsStatic:
    def test_line(self, name, line_graph):
        check_all_pairs(EXACT_FACTORIES[name](line_graph.copy()), line_graph)

    def test_cycle(self, name, cycle_graph):
        check_all_pairs(EXACT_FACTORIES[name](cycle_graph.copy()), cycle_graph)

    def test_two_sccs(self, name, two_scc_graph):
        check_all_pairs(EXACT_FACTORIES[name](two_scc_graph.copy()), two_scc_graph)

    def test_disconnected(self, name, disconnected_graph):
        check_all_pairs(
            EXACT_FACTORIES[name](disconnected_graph.copy()), disconnected_graph
        )

    def test_random_graphs(self, name):
        for seed in range(5):
            g = random_graph(18, 45, seed)
            check_all_pairs(EXACT_FACTORIES[name](g.copy()), g)

    def test_highschool_sample(self, name, highschool):
        rng = random.Random(0)
        method = EXACT_FACTORIES[name](highschool.copy())
        for _ in range(40):
            s, t = rng.randrange(70), rng.randrange(70)
            assert method.query(s, t) == is_reachable_bfs(highschool, s, t)

    def test_missing_vertices(self, name, line_graph):
        method = EXACT_FACTORIES[name](line_graph.copy())
        assert not method.query(0, 999)
        assert method.query(2, 2)


@pytest.mark.parametrize("name", sorted(EXACT_FACTORIES))
class TestExactMethodsDynamic:
    def test_insert_connects(self, name):
        g = DynamicDiGraph(edges=[(0, 1), (2, 3)])
        method = EXACT_FACTORIES[name](g)
        assert not method.query(0, 3)
        method.insert_edge(1, 2)
        assert method.query(0, 3)

    def test_delete_disconnects(self, name):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        method = EXACT_FACTORIES[name](g)
        method.delete_edge(1, 2)
        assert not method.query(0, 2)

    def test_scc_merge_then_split(self, name):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        method = EXACT_FACTORIES[name](g)
        method.insert_edge(2, 0)  # merge {0,1,2}
        assert method.query(2, 1)
        method.delete_edge(2, 0)  # split again
        assert not method.query(2, 1)
        assert method.query(0, 2)

    def test_new_vertex_attachment(self, name):
        g = DynamicDiGraph(edges=[(0, 1)])
        method = EXACT_FACTORIES[name](g)
        method.insert_edge(1, 7)  # brand-new target
        method.insert_edge(8, 0)  # brand-new source
        assert method.query(8, 7)
        assert not method.query(7, 8)

    def test_random_stream_matches_oracle(self, name):
        rng = random.Random(13)
        g = DynamicDiGraph(vertices=range(12))
        shadow = g.copy()
        method = EXACT_FACTORIES[name](g)
        edges = set()
        for step in range(120):
            u, v = rng.randrange(12), rng.randrange(12)
            if u == v:
                continue
            if (u, v) in edges and rng.random() < 0.45:
                method.delete_edge(u, v)
                shadow.remove_edge(u, v)
                edges.discard((u, v))
            else:
                method.insert_edge(u, v)
                shadow.add_edge(u, v)
                edges.add((u, v))
            if step % 10 == 0:
                s, t = rng.randrange(12), rng.randrange(12)
                assert method.query(s, t) == is_reachable_bfs(shadow, s, t)


class TestBiBFSSpecifics:
    def test_function_counts_accesses(self, line_graph):
        stats = QueryStats()
        assert bibfs_is_reachable(line_graph, 0, 4, stats)
        assert stats.bibfs_edge_accesses > 0
        assert stats.result is True

    def test_alg5_scans_both_sides_on_negative(self):
        """The paper's Alg. 5 keeps expanding while either frontier is
        non-empty; a negative query pays for both cones."""
        edges = [(0, i) for i in range(1, 6)] + [(i, 10) for i in range(11, 16)]
        g = DynamicDiGraph(edges=edges)
        stats = QueryStats()
        assert not bibfs_is_reachable(g, 0, 10, stats)
        assert stats.bibfs_edge_accesses == g.num_edges  # both cones scanned

    def test_method_flags(self, line_graph):
        method = BiBFSMethod(line_graph.copy())
        assert method.exact and method.supports_deletions


class TestArrow:
    def test_never_false_positive(self):
        g = random_graph(25, 50, seed=4)
        method = ArrowMethod(g, c_num_walks=2.0, seed=1)
        vs = list(g.vertices())[:10]
        for s in vs:
            for t in vs:
                if method.query(s, t):
                    assert is_reachable_bfs(g, s, t)

    def test_finds_short_paths_reliably(self, line_graph):
        method = ArrowMethod(line_graph, c_num_walks=5.0, seed=2)
        assert method.query(0, 1)

    def test_flags(self, line_graph):
        method = ArrowMethod(line_graph.copy())
        assert not method.exact
        assert method.supports_deletions

    def test_updates_are_adjacency_only(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        method = ArrowMethod(g, c_num_walks=5.0, seed=3)
        method.insert_edge(1, 2)
        method.delete_edge(0, 1)
        assert g.has_edge(1, 2) and not g.has_edge(0, 1)

    def test_unidirectional_variant(self, line_graph):
        method = ArrowMethod(
            line_graph, c_num_walks=10.0, bidirectional=False, seed=4
        )
        assert method.query(0, 4)
        assert not method.query(4, 0)

    def test_invalid_constants(self, line_graph):
        with pytest.raises(ValueError):
            ArrowMethod(line_graph, c_walk_length=0)

    def test_tuning_loop_reaches_target(self, highschool):
        rng = random.Random(7)
        queries = [(rng.randrange(70), rng.randrange(70)) for _ in range(20)]
        queries = [(s, t) for s, t in queries if s != t]
        truth = [is_reachable_bfs(highschool, s, t) for s, t in queries]
        method, accuracy = tune_arrow_accuracy(
            highschool, queries, truth, target_accuracy=0.9, max_steps=300, seed=0
        )
        assert accuracy >= 0.9
        assert method.c_num_walks >= 0.01

    def test_tuning_empty_queries(self, highschool):
        method, accuracy = tune_arrow_accuracy(highschool, [], [], seed=0)
        assert accuracy == 1.0


class TestTOLSpecifics:
    def test_label_query_covers_2hop(self, two_scc_graph):
        method = TOLMethod(two_scc_graph.copy())
        cs = method.dag.component_of(0)
        ct = method.dag.component_of(3)
        assert method._label_query(cs, ct)
        assert not method._label_query(ct, cs)

    def test_closure_preserving_insert_skips_rebuild(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        method = TOLMethod(g)
        builds = method.rebuild_count
        method.insert_edge(0, 2)  # 0 already reaches 2
        assert method.rebuild_count == builds
        assert method.query(0, 2)

    def test_closure_changing_insert_rebuilds(self):
        g = DynamicDiGraph(edges=[(0, 1), (2, 3)])
        method = TOLMethod(g)
        builds = method.rebuild_count
        method.insert_edge(1, 2)
        assert method.rebuild_count > builds

    def test_redundant_delete_skips_rebuild(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (0, 2)])
        method = TOLMethod(g)
        builds = method.rebuild_count
        method.delete_edge(0, 2)  # path through 1 preserves closure
        assert method.rebuild_count == builds
        assert method.query(0, 2)

    def test_delete_nonexistent_edge(self, line_graph):
        method = TOLMethod(line_graph.copy())
        method.delete_edge(40, 41)  # silently ignored
        assert method.query(0, 4)


class TestIPSpecifics:
    def test_parameter_validation(self, line_graph):
        with pytest.raises(ValueError):
            IPMethod(line_graph.copy(), k=0)

    def test_huge_vertex_shortcut(self):
        # A high-degree middle vertex becomes huge; queries through it are
        # answered by the stored closure.
        edges = [(i, 50) for i in range(10)] + [(50, 100 + i) for i in range(10)]
        g = DynamicDiGraph(edges=edges)
        method = IPMethod(g, h=1)
        assert method.dag.component_of(50) in method.huge
        assert method.query(0, 105)
        assert not method.query(105, 0)

    def test_level_prune_sound(self, line_graph):
        method = IPMethod(line_graph.copy(), mu=2)  # levels cap at 2
        check_all_pairs(method, line_graph)

    def test_attach_keeps_labels_exact(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        method = IPMethod(g)
        builds = method.rebuild_count
        method.insert_edge(2, 9)  # new leaf: incremental attach
        assert method.rebuild_count == builds
        check_all_pairs(method, g)

    def test_attach_new_root(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        method = IPMethod(g)
        method.insert_edge(9, 0)  # new root
        assert method.query(9, 1)
        assert not method.query(1, 9)

    def test_zero_huge_vertices(self, two_scc_graph):
        method = IPMethod(two_scc_graph.copy(), h=0)
        check_all_pairs(method, two_scc_graph)


class TestDaggerSpecifics:
    def test_intervals_necessary_condition(self, line_graph):
        method = DaggerMethod(line_graph.copy())
        c0 = method.dag.component_of(0)
        c4 = method.dag.component_of(4)
        target = [label[c4] for label in method.labels]
        assert method._may_reach(c0, target)

    def test_rebuild_counter_driven(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        method = DaggerMethod(g, rebuild_every=2)
        method.insert_edge(1, 2)
        method.insert_edge(2, 3)  # triggers rebuild
        assert method._updates_since_rebuild == 0
        assert method.query(0, 3)

    def test_interval_over_approx_after_split(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 0), (1, 2)])
        method = DaggerMethod(g, rebuild_every=10_000)
        method.delete_edge(1, 0)  # split the SCC; intervals inherited
        assert method.query(0, 2)
        assert not method.query(2, 0)

    def test_num_labels_validation(self, line_graph):
        with pytest.raises(ValueError):
            DaggerMethod(line_graph.copy(), num_labels=0)


class TestDBL:
    def test_static_all_pairs(self, two_scc_graph):
        check_all_pairs(DBLMethod(two_scc_graph.copy()), two_scc_graph)

    def test_random_static(self):
        for seed in range(4):
            g = random_graph(16, 40, seed)
            check_all_pairs(DBLMethod(g.copy()), g)

    def test_insert_only_stream(self):
        rng = random.Random(3)
        g = DynamicDiGraph(vertices=range(10))
        shadow = g.copy()
        method = DBLMethod(g)
        for step in range(80):
            u, v = rng.randrange(10), rng.randrange(10)
            if u == v:
                continue
            method.insert_edge(u, v)
            shadow.add_edge(u, v)
            if step % 8 == 0:
                s, t = rng.randrange(10), rng.randrange(10)
                assert method.query(s, t) == is_reachable_bfs(shadow, s, t)

    def test_deletions_rejected(self, line_graph):
        method = DBLMethod(line_graph.copy())
        assert not method.supports_deletions
        with pytest.raises(NotImplementedError):
            method.delete_edge(0, 1)

    def test_landmark_positive_shortcut(self):
        # The hub is a landmark; DL answers without any BFS.
        edges = [(i, 50) for i in range(5)] + [(50, 100)]
        g = DynamicDiGraph(edges=edges)
        method = DBLMethod(g)
        assert method.labels.check(0, 100) is True
        assert method.query(0, 100)

    def test_new_vertices_on_insert(self):
        method = DBLMethod(DynamicDiGraph(edges=[(0, 1)]))
        method.insert_edge(1, 99)
        assert method.query(0, 99)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_property_all_exact_methods_agree(seed):
    """On a random graph, every exact method answers identically."""
    g = random_graph(12, 30, seed)
    rng = random.Random(seed)
    methods = [factory(g.copy()) for factory in EXACT_FACTORIES.values()]
    methods.append(DBLMethod(g.copy()))
    vs = list(g.vertices())
    for _ in range(6):
        s, t = rng.choice(vs), rng.choice(vs)
        expected = is_reachable_bfs(g, s, t)
        for method in methods:
            assert method.query(s, t) == expected


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 9)),
        max_size=40,
    )
)
def test_property_index_methods_survive_any_stream(ops):
    """TOL/IP/DAGGER stay exact under arbitrary update interleavings."""
    base = DynamicDiGraph(edges=[(0, 1), (1, 2)])
    methods = [
        TOLMethod(base.copy()),
        IPMethod(base.copy()),
        DaggerMethod(base.copy()),
    ]
    shadow = base.copy()
    for insert, u, v in ops:
        if u == v:
            continue
        if insert:
            shadow.add_edge(u, v)
            for m in methods:
                m.insert_edge(u, v)
        else:
            shadow.remove_edge(u, v)
            for m in methods:
                m.delete_edge(u, v)
    for s in (0, 1, 5):
        for t in (2, 7):
            if s in shadow and t in shadow:
                expected = is_reachable_bfs(shadow, s, t)
                for m in methods:
                    assert m.query(s, t) == expected
