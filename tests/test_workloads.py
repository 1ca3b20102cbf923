"""Tests for query generation and accuracy metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.workloads.precision import accuracy, confusion_counts
from repro.workloads.queries import generate_queries, label_queries

from tests.conftest import random_graph


class TestQueryGeneration:
    def test_paper_protocol_constraints(self):
        g = random_graph(30, 60, seed=1)
        queries = generate_queries(g, 100, seed=2)
        assert len(queries) == 100
        for s, t in queries:
            assert s != t
            assert g.out_degree(s) > 0
            assert g.in_degree(t) > 0

    def test_deterministic_with_seed(self):
        g = random_graph(20, 40, seed=3)
        assert generate_queries(g, 20, seed=9) == generate_queries(g, 20, seed=9)

    def test_empty_pools(self):
        g = DynamicDiGraph(vertices=[0, 1, 2])  # no edges at all
        assert generate_queries(g, 10, seed=0) == []

    def test_single_edge_graph(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        queries = generate_queries(g, 5, seed=0)
        assert all(q == (0, 1) for q in queries)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_queries(DynamicDiGraph(), -1)


class TestLabeling:
    def test_ground_truth_matches_oracle(self):
        g = random_graph(25, 50, seed=5)
        batch = label_queries(g, generate_queries(g, 40, seed=6))
        for (s, t), expected in zip(batch.queries, batch.ground_truth):
            assert expected == is_reachable_bfs(g, s, t)

    def test_negative_fraction(self):
        g = DynamicDiGraph(edges=[(0, 1), (2, 3)])
        batch = label_queries(g, [(0, 1), (0, 3)])
        assert batch.negative_fraction == pytest.approx(0.5)

    def test_negative_fraction_empty(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        assert label_queries(g, []).negative_fraction == 0.0


class TestMetrics:
    def test_confusion(self):
        answers = [True, True, False, False]
        truth = [True, False, False, True]
        assert confusion_counts(answers, truth) == (1, 1, 1, 1)

    def test_confusion_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts([True], [])

    def test_accuracy(self):
        assert accuracy([True, False], [True, True]) == pytest.approx(0.5)
        assert accuracy([], []) == 1.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**5), count=st.integers(0, 30))
def test_property_generated_queries_valid(seed, count):
    g = random_graph(15, 30, seed)
    for s, t in generate_queries(g, count, seed=seed):
        assert s != t
        assert g.out_degree(s) > 0
        assert g.in_degree(t) > 0


class TestMixedWorkload:
    def _graph(self):
        return random_graph(30, 80, seed=3)

    def test_requested_length_and_kinds(self):
        from repro.workloads.mixed import generate_mixed_workload

        ops = generate_mixed_workload(self._graph(), 300, seed=1)
        assert len(ops) == 300
        assert {op.kind for op in ops} <= {"query", "insert", "delete"}

    def test_query_ratio_respected(self):
        from repro.workloads.mixed import generate_mixed_workload, workload_mix

        ops = generate_mixed_workload(
            self._graph(), 1000, query_ratio=0.7, seed=2
        )
        queries, inserts, deletes = workload_mix(ops)
        assert queries + inserts + deletes == 1000
        assert 0.6 < queries / 1000 < 0.8
        assert inserts > 0 and deletes > 0

    def test_updates_are_never_noops(self):
        """Replaying the stream must apply every update effectively."""
        from repro.workloads.mixed import generate_mixed_workload

        graph = self._graph()
        ops = generate_mixed_workload(graph, 500, query_ratio=0.5, seed=4)
        replay = graph.copy()
        for op in ops:
            if op.kind == "insert":
                assert replay.add_edge(op.u, op.v), op
            elif op.kind == "delete":
                assert replay.remove_edge(op.u, op.v), op

    def test_deterministic_under_seed(self):
        from repro.workloads.mixed import generate_mixed_workload

        a = generate_mixed_workload(self._graph(), 200, seed=7)
        b = generate_mixed_workload(self._graph(), 200, seed=7)
        assert a == b

    def test_empty_graph_rejected(self):
        from repro.workloads.mixed import generate_mixed_workload

        with pytest.raises(ValueError):
            generate_mixed_workload(DynamicDiGraph(), 10)
