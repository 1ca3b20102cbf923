"""Unit and property tests for the dynamic digraph substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph

from tests.oracles import subgraph


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

    def test_reversed(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        r = g.reversed()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert r.num_edges == 2

    def test_reversed_twice_is_identity(self):
        g = DynamicDiGraph(edges=[(0, 1), (2, 3), (3, 0)])
        assert g.reversed().reversed() == g

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
