"""Unit and property tests for the dynamic digraph substrate."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph

from tests.oracles import assert_same_build, subgraph


class TestConstruction:
    def test_empty(self):
        g = DynamicDiGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.average_degree == 0.0

    def test_from_edges(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_vertices(self):
        g = DynamicDiGraph(vertices=[5, 7])
        assert g.num_vertices == 2
        assert g.num_edges == 0

    def test_repr(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        assert repr(g) == "DynamicDiGraph(n=2, m=1)"


class TestEdgeMutation:
    def test_add_edge_creates_vertices(self):
        g = DynamicDiGraph()
        assert g.add_edge(3, 9)
        assert g.has_vertex(3) and g.has_vertex(9)
        assert g.has_edge(3, 9)
        assert not g.has_edge(9, 3)

    def test_parallel_edge_rejected(self):
        g = DynamicDiGraph()
        assert g.add_edge(0, 1)
        assert not g.add_edge(0, 1)
        assert g.num_edges == 1

    def test_self_loop_allowed(self):
        g = DynamicDiGraph()
        assert g.add_edge(4, 4)
        assert g.has_edge(4, 4)
        assert g.out_degree(4) == 1
        assert g.in_degree(4) == 1

    def test_remove_edge(self):
        g = DynamicDiGraph(edges=[(0, 1), (0, 2)])
        assert g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 2)
        assert g.num_edges == 1

    def test_remove_missing_edge(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        assert not g.remove_edge(1, 0)
        assert g.num_edges == 1

    def test_reinsert_after_remove(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        g.remove_edge(0, 1)
        assert g.add_edge(0, 1)
        assert g.num_edges == 1

    def test_remove_vertex(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 0), (1, 1)])
        assert g.remove_vertex(1)
        assert not g.has_vertex(1)
        assert g.num_edges == 1  # only 2 -> 0 survives
        assert g.has_edge(2, 0)

    def test_remove_missing_vertex(self):
        g = DynamicDiGraph()
        assert not g.remove_vertex(99)


class TestDegreesAndAdjacency:
    def test_degrees(self):
        g = DynamicDiGraph(edges=[(0, 1), (0, 2), (3, 0)])
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 1
        assert g.degree(0) == 3

    def test_neighbors_directional(self):
        g = DynamicDiGraph(edges=[(0, 1), (2, 0)])
        assert set(g.neighbors(0, forward=True)) == {1}
        assert set(g.neighbors(0, forward=False)) == {2}

    def test_adjacency_maps(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        assert g.adjacency(True)[0] == [1]
        assert g.adjacency(False)[1] == [0]

    def test_edges_iteration(self):
        edges = {(0, 1), (1, 2), (2, 0)}
        g = DynamicDiGraph(edges=edges)
        assert set(g.edges()) == edges

    def test_average_degree(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        assert g.average_degree == pytest.approx(2 / 3)


class TestDerivedGraphs:
    def test_copy_independent(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2
        assert g == DynamicDiGraph(edges=[(0, 1)])

    def test_copy_keeps_the_order_of_an_add_edge_loop(self):
        g = DynamicDiGraph(vertices=[9, 4], edges=[(4, 1), (1, 4), (4, 4)])
        g.add_edge(1, 2)
        g.add_edge(0, 4)
        g.remove_edge(4, 1)
        g.add_vertex(7)
        want = DynamicDiGraph()
        for v in g.vertices():
            want.add_vertex(v)
        for u, v in g.edges():
            want.add_edge(u, v)
        want.restore_version(g.version)
        assert_same_build(g.copy(), want)

    def test_subgraph(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 3)])
        sub = subgraph(g, [0, 1, 2])
        assert sub.num_vertices == 3
        assert set(sub.edges()) == {(0, 1), (1, 2)}

    def test_subgraph_with_missing_vertices(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        sub = subgraph(g, [0, 99])
        assert sub.num_vertices == 1
        assert sub.num_edges == 0


class TestDunder:
    def test_contains_and_len(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        assert 0 in g and 1 in g and 2 not in g
        assert len(g) == 2

    def test_equality(self):
        a = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        b = DynamicDiGraph(edges=[(1, 2), (0, 1)])
        assert a == b
        b.add_edge(2, 0)
        assert a != b

    def test_equality_other_type(self):
        assert DynamicDiGraph() != 42


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 12),
            st.integers(0, 12),
        ),
        max_size=80,
    )
)
def test_property_mirror_against_edge_set(ops):
    """Random insert/delete sequences keep the graph consistent with a
    plain set-of-edges model, including in/out adjacency symmetry."""
    g = DynamicDiGraph()
    model = set()
    for insert, u, v in ops:
        if insert:
            g.add_edge(u, v)
            model.add((u, v))
        else:
            g.remove_edge(u, v)
            model.discard((u, v))
    assert set(g.edges()) == model
    assert g.num_edges == len(model)
    for u, v in model:
        assert v in g.out_neighbors(u)
        assert u in g.in_neighbors(v)
    for v in g.vertices():
        assert g.out_degree(v) == sum(1 for (a, _) in model if a == v)
        assert g.in_degree(v) == sum(1 for (_, b) in model if b == v)


class TestVersionCounter:
    def test_starts_at_zero(self):
        assert DynamicDiGraph().version == 0

    def test_every_effective_mutation_bumps(self):
        g = DynamicDiGraph()
        v = g.version
        g.add_vertex(7)
        assert g.version > v
        v = g.version
        g.add_edge(7, 8)  # new vertex 8 + new edge
        assert g.version > v
        v = g.version
        g.remove_edge(7, 8)
        assert g.version > v
        v = g.version
        g.remove_vertex(8)
        assert g.version > v

    def test_noops_do_not_bump(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        v = g.version
        g.add_vertex(0)
        g.add_edge(0, 1)  # parallel edge rejected
        g.remove_edge(1, 0)  # never existed
        g.remove_vertex(99)  # never existed
        assert g.version == v

    def test_version_identifies_snapshot(self):
        """Equal versions on one graph object imply equal edge sets, so
        derived state stamped with a version can trust it."""
        g = DynamicDiGraph(edges=[(0, 1)])
        v = g.version
        g.add_edge(1, 2)
        g.remove_edge(1, 2)
        # Same edge set as at v, but a strictly newer version: consumers
        # must see that *something* happened in between.
        assert set(g.edges()) == {(0, 1)}
        assert g.version > v

    def test_copy_has_independent_version(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        clone = g.copy()
        v = clone.version
        g.add_edge(1, 2)
        assert clone.version == v


# ----------------------------------------------------------------------
# The graph is its adjacency lists: no per-edge structure beside them
# ----------------------------------------------------------------------
class _CountingId(int):
    """An int id whose equality tests are counted: a dict probe that
    finds a distinct equal key, and ``list.__contains__`` at every slot,
    compare through ``__eq__``."""

    compared = 0

    def __eq__(self, other):
        _CountingId.compared += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


class TestEdgeMembership:
    def _star(self):
        # Hub 0 points at 1..1000 and is pointed at by 1001..2000.
        return DynamicDiGraph(
            edges=[(0, v) for v in range(1, 1001)]
            + [(u, 0) for u in range(1001, 2001)]
        )

    @pytest.mark.parametrize(
        "u, v, expected",
        [(0, 500, True), (1500, 0, True), (0, 1500, False), (500, 0, False)],
    )
    def test_has_edge_scans_the_short_side_of_a_hub(self, u, v, expected):
        g = self._star()
        _CountingId.compared = 0
        assert g.has_edge(_CountingId(u), _CountingId(v)) is expected
        assert _CountingId.compared <= 3  # two dict probes, one list slot

    def test_has_edge_with_a_missing_endpoint(self):
        g = self._star()
        g.add_vertex(5000)
        for u, v in ((0, 9999), (9999, 0), (9999, 9998), (5000, 0), (0, 5000)):
            assert not g.has_edge(u, v)
        assert g.num_vertices == 2002  # a probe creates no vertex

    def test_a_pa_graph_holds_no_per_edge_tuples(self):
        """Traced bytes per edge of a 65k-edge preferential-attachment
        graph built in bulk: list slots and per-vertex containers only
        (35 B/edge; 124 with a set of edge tuples beside the lists)."""
        import gc
        import tracemalloc

        from repro.datasets.scale_free import preferential_attachment_graph

        edges = list(
            preferential_attachment_graph(5000, 12, seed=1, reciprocal=0.08)
            .edges()
        )
        gc.collect()
        tracemalloc.start()
        try:
            g = DynamicDiGraph(edges=edges)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.num_edges >= 50_000
        assert traced / g.num_edges <= 64

    # A hub's repeats, found from the leaf's side: (hub, leaf) on the
    # leaf's in-list, (leaf, hub) on its out-list.
    _HUB = [(0, v) for v in range(1, 40)] + [(v, 0) for v in range(1, 40)]

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=80
        ),
        vertices=st.lists(st.integers(0, 9), max_size=5),
    )
    @example(edges=_HUB + _HUB[::-1] + _HUB, vertices=[])
    def test_bulk_build_with_duplicates_is_the_add_edge_loop(
        self, edges, vertices
    ):
        want = DynamicDiGraph()
        for v in vertices:
            want.add_vertex(v)
        for u, v in edges:
            want.add_edge(u, v)
        assert_same_build(DynamicDiGraph(edges=edges, vertices=vertices), want)
