"""Stateful property tests (hypothesis RuleBasedStateMachine).

Model-based fuzzing of the long-lived mutable structures: the incremental
condensation, the fast-path pruner built on it, and the IFCA engine.
Hypothesis drives arbitrary interleavings of operations and shrinks
failures to minimal traces.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines.dbl import DBLMethod
from repro.core import ifca
from repro.core.ifca import IFCA
from repro.core.params import IFCAParams
from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.service import fastpath
from repro.service.fastpath import FastPathPruner

VERTICES = st.integers(0, 9)
DAG_VERTICES = st.integers(0, 29)
#: Closed walks: one rule application builds (or tears down) a whole
#: cycle, so 30 vertices still see multi-member SCCs merge and split.
DAG_WALKS = st.lists(DAG_VERTICES, min_size=2, max_size=6, unique=True)


def _closed_walk(walk):
    return zip(walk, walk[1:] + walk[:1])


class DagMachine(RuleBasedStateMachine):
    """DynamicDAG under arbitrary update interleavings, checked against a
    from-scratch recondensation after every step; ``check_invariants``
    holds the levels to their contract through every merge and split."""

    def __init__(self):
        super().__init__()
        self.dag = DynamicDAG()

    @rule(u=DAG_VERTICES, v=DAG_VERTICES)
    def insert(self, u, v):
        self.dag.insert_edge(u, v)

    @rule(u=DAG_VERTICES, v=DAG_VERTICES)
    def delete(self, u, v):
        self.dag.delete_edge(u, v)

    @rule(walk=DAG_WALKS)
    def insert_cycle(self, walk):
        for u, v in _closed_walk(walk):
            self.dag.insert_edge(u, v)

    @rule(data=st.data())
    def delete_existing(self, data):
        edges = sorted(self.dag.graph.edges())
        if edges:
            self.dag.delete_edge(*data.draw(st.sampled_from(edges)))

    @rule(v=DAG_VERTICES)
    def add_vertex(self, v):
        self.dag.add_vertex(v)

    @invariant()
    def consistent_with_scratch(self):
        self.dag.check_invariants()
        self.dag.check_consistency()


class PrunerMachine(RuleBasedStateMachine):
    """FastPathPruner over the maintained condensation: levels stay a
    strict topological labelling and every observation matches BFS."""

    def __init__(self):
        super().__init__()
        self.graph = DynamicDiGraph()
        self.pruner = FastPathPruner(self.graph, num_supportive=2, seed=0)

    @rule(u=VERTICES, v=VERTICES)
    def insert(self, u, v):
        self.pruner.apply_insert(u, v)

    @rule(walk=st.lists(VERTICES, min_size=2, max_size=5, unique=True))
    def insert_cycle(self, walk):
        for u, v in _closed_walk(walk):
            self.pruner.apply_insert(u, v)

    @rule(data=st.data())
    def delete_existing(self, data):
        edges = sorted(self.graph.edges())
        if edges:
            self.pruner.apply_delete(*data.draw(st.sampled_from(edges)))

    @rule(u=VERTICES, v=VERTICES)
    def delete(self, u, v):
        self.pruner.apply_delete(u, v)

    @invariant()
    def levels_rise_and_observations_match_bfs(self):
        self.pruner.dag.check_invariants()  # levels rise along every edge
        self.pruner.observe_query()
        vertices = sorted(self.graph.vertices())
        for s in vertices:
            for t in vertices:
                observed = self.pruner.check(s, t)
                if observed is not None:
                    assert observed[0] == is_reachable_bfs(self.graph, s, t), (
                        s, t, observed,
                    )


class IfcaMachine(RuleBasedStateMachine):
    """A long-lived IFCA engine under interleaved updates and queries,
    refereed by the BFS oracle on a shadow graph."""

    def __init__(self):
        super().__init__()
        self.graph = DynamicDiGraph(vertices=range(10))
        self.engine = IFCA(self.graph)
        self.contract_engine = IFCA(self.graph, IFCAParams(use_cost_model=False))
        self.shadow = self.graph.copy()

    @rule(u=VERTICES, v=VERTICES)
    def insert(self, u, v):
        if u != v:
            self.engine.insert_edge(u, v)
            self.shadow.add_edge(u, v)

    @rule(u=VERTICES, v=VERTICES)
    def delete(self, u, v):
        self.engine.delete_edge(u, v)
        self.shadow.remove_edge(u, v)

    @rule(s=VERTICES, t=VERTICES)
    def query(self, s, t):
        expected = is_reachable_bfs(self.shadow, s, t)
        assert self.engine.is_reachable(s, t) == expected
        assert self.contract_engine.is_reachable(s, t) == expected


class DblMachine(RuleBasedStateMachine):
    """DBL's monotone labels under arbitrary insert streams."""

    def __init__(self):
        super().__init__()
        self.method = DBLMethod(DynamicDiGraph(vertices=range(8)), num_landmarks=3)
        self.shadow = DynamicDiGraph(vertices=range(8))

    @rule(u=VERTICES.filter(lambda x: x < 8), v=VERTICES.filter(lambda x: x < 8))
    def insert(self, u, v):
        if u != v:
            self.method.insert_edge(u, v)
            self.shadow.add_edge(u, v)

    @rule(s=VERTICES.filter(lambda x: x < 8), t=VERTICES.filter(lambda x: x < 8))
    def query(self, s, t):
        assert self.method.query(s, t) == is_reachable_bfs(self.shadow, s, t)


TestDagMachine = DagMachine.TestCase
TestDagMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
class TestPrunerMachine(PrunerMachine.TestCase):
    @pytest.fixture(autouse=True)
    def _rebuild_every_query(self, monkeypatch):
        monkeypatch.setattr(fastpath, "REBUILD_COOLDOWN", 1)


TestPrunerMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
class TestIfcaMachine(IfcaMachine.TestCase):
    @pytest.fixture(autouse=True)
    def _round_cap(self, monkeypatch):
        monkeypatch.setattr(ifca, "MAX_ROUNDS", 200)


TestIfcaMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestDblMachine = DblMachine.TestCase
TestDblMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
