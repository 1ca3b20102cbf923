"""Tests for incremental condensation maintenance (DynamicDAG)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.scale_free import preferential_attachment_graph
from repro.graph import dag as dag_module
from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph


class TestStaticBuild:
    def test_build_from_graph(self, two_scc_graph):
        dag = DynamicDAG(two_scc_graph)
        dag.check_consistency()
        assert dag.dag.num_vertices == 2
        assert dag.component_of(0) == dag.component_of(1)
        assert dag.component_of(0) != dag.component_of(3)

    def test_empty(self):
        dag = DynamicDAG()
        assert dag.dag.num_vertices == 0


class TestInsertions:
    def test_insert_simple_edge(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 1)
        dag.check_consistency()
        assert dag.component_of(0) != dag.component_of(1)
        assert dag.merge_count == 0

    def test_insert_duplicate_is_noop(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 1)
        assert not dag.insert_edge(0, 1)
        dag.check_consistency()

    def test_cycle_merges(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 1)
        dag.insert_edge(1, 2)
        dag.insert_edge(2, 0)
        dag.check_consistency()
        assert dag.component_of(0) == dag.component_of(2)
        assert dag.merge_count == 1

    def test_long_path_merge(self):
        dag = DynamicDAG()
        for i in range(10):
            dag.insert_edge(i, i + 1)
        dag.insert_edge(10, 0)
        dag.check_consistency()
        assert dag.dag.num_vertices == 1
        assert len(dag.members[dag.component_of(0)]) == 11

    def test_partial_merge_keeps_outside(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 1)
        dag.insert_edge(1, 2)
        dag.insert_edge(2, 3)
        dag.insert_edge(2, 0)  # merge {0,1,2}, keep 3 outside
        dag.check_consistency()
        assert dag.component_of(0) == dag.component_of(2)
        assert dag.component_of(0) != dag.component_of(3)
        assert dag.dag.has_edge(dag.component_of(0), dag.component_of(3))

    def test_merge_preserves_multiplicity(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 2)
        dag.insert_edge(1, 2)
        dag.insert_edge(0, 1)
        dag.insert_edge(1, 0)  # merge {0,1}; two edges now lead to {2}
        dag.check_consistency()
        c01 = dag.component_of(0)
        c2 = dag.component_of(2)
        assert dag._edge_multiplicity[(c01, c2)] == 2

    def test_self_loop(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 0)
        dag.check_consistency()
        assert dag.dag.num_vertices == 1


class TestDeletions:
    def test_delete_inter_scc_edge(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 1)
        dag.delete_edge(0, 1)
        dag.check_consistency()
        assert dag.split_count == 0

    def test_delete_missing_edge(self):
        dag = DynamicDAG()
        dag.insert_edge(0, 1)
        assert not dag.delete_edge(1, 0)
        dag.check_consistency()

    def test_delete_splits_cycle(self):
        dag = DynamicDAG()
        for u, v in [(0, 1), (1, 2), (2, 0)]:
            dag.insert_edge(u, v)
        dag.delete_edge(1, 2)
        dag.check_consistency()
        assert dag.component_of(0) != dag.component_of(2)
        assert dag.split_count == 1

    def test_delete_redundant_intra_edge_no_split(self):
        dag = DynamicDAG()
        for u, v in [(0, 1), (1, 0), (0, 2), (2, 0)]:
            dag.insert_edge(u, v)
        dag.insert_edge(1, 2)  # redundant chord inside the SCC {0,1,2}
        dag.delete_edge(1, 2)
        dag.check_consistency()
        assert dag.component_of(0) == dag.component_of(2)
        assert dag.split_count == 0

    def test_split_rewires_external_edges(self):
        dag = DynamicDAG()
        for u, v in [(0, 1), (1, 2), (2, 0), (5, 1), (2, 6)]:
            dag.insert_edge(u, v)
        dag.delete_edge(2, 0)
        dag.check_consistency()
        assert dag.dag.has_edge(dag.component_of(5), dag.component_of(1))
        assert dag.dag.has_edge(dag.component_of(2), dag.component_of(6))


class TestLevels:
    """The DAG owns the topological levels: longest-path at build,
    repaired in place by every update, strictly rising along every edge."""

    def _level_of(self, dag):
        return {v: dag.level[c] for v, c in dag.scc_of.items()}

    def test_build_assigns_longest_path_levels(self):
        graph = DynamicDiGraph(
            edges=[(4, 5), (5, 4), (5, 0), (0, 1), (1, 2), (0, 2), (2, 3)]
        )
        dag = DynamicDAG(graph)
        dag.check_invariants()
        assert self._level_of(dag) == {4: 0, 5: 0, 0: 1, 1: 2, 2: 3, 3: 4}

    def test_updates_repair_levels_in_place(self):
        dag = _build([(0, 1), (2, 3)])
        assert self._level_of(dag) == {0: 0, 1: 1, 2: 0, 3: 1}
        dag.insert_edge(1, 2)  # raises 2 and, through it, 3
        assert self._level_of(dag) == {0: 0, 1: 1, 2: 2, 3: 3}
        dag.insert_edge(3, 1)  # merges {1, 2, 3} at the max of its parts
        dag.check_invariants()
        assert self._level_of(dag) == {0: 0, 1: 3, 2: 3, 3: 3}
        dag.insert_edge(3, 9)
        assert self._level_of(dag)[9] == 4
        dag.delete_edge(3, 1)  # splits, then lowers the parts to their in-edges
        dag.check_invariants()
        assert self._level_of(dag) == {0: 0, 1: 1, 2: 2, 3: 3, 9: 4}
        dag.delete_edge(0, 1)  # 1 lost its only in-edge: it and its path fall
        dag.check_invariants()
        assert self._level_of(dag) == {0: 0, 1: 0, 2: 1, 3: 2, 9: 3}
        dag.add_vertex(7)
        assert self._level_of(dag)[7] == 0

    def test_churn_does_not_drift_the_levels(self):
        """Deletes lower what inserts raised: flipping one edge back and
        forth leaves the levels where a rebuild would put them."""
        dag = DynamicDAG()
        for _ in range(500):
            for edge in ((1, 0), (0, 1)):
                dag.insert_edge(*edge)
                dag.check_invariants()
                dag.delete_edge(*edge)
                dag.check_invariants()
                assert max(dag.level.values()) <= 1
        assert set(dag.level.values()) == {0}

    def test_a_merge_and_split_cycle_does_not_drift_the_levels(self):
        dag = _build([(5, 0), (1, 2)])
        for _ in range(50):
            dag.insert_edge(0, 1)
            dag.insert_edge(1, 0)  # merges {0, 1} at the max of its parts
            dag.delete_edge(1, 0)  # splits it again
            dag.delete_edge(0, 1)
            dag.check_invariants()
        assert self._level_of(dag) == {5: 0, 0: 1, 1: 0, 2: 1}

    def test_components_of_aligns_with_the_ids(self):
        dag = DynamicDAG(DynamicDiGraph(edges=[(0, 1), (1, 0), (1, 2)]))
        comp, level = dag.components_of(np.array([0, 1, 2]))
        assert comp.dtype == level.dtype == np.int64
        assert comp.tolist() == [dag.component_of(v) for v in (0, 1, 2)]
        assert level.tolist() == [0, 0, 1]

    def test_version_stamp_falls_behind_for_good(self):
        graph = DynamicDiGraph(edges=[(0, 1)])
        dag = DynamicDAG(graph)
        assert dag.version == graph.version
        dag.insert_edge(1, 2)
        dag.delete_edge(0, 1)
        dag.add_vertex(5)
        assert dag.version == graph.version
        graph.add_edge(2, 3)  # behind the DAG's back
        dag.insert_edge(3, 4)
        assert dag.version < graph.version


class TestCallbacks:
    def test_merge_callback(self):
        events = []
        dag = DynamicDAG()
        dag.on_merge = lambda merged, new_cid: events.append(("merge", new_cid))
        dag.insert_edge(0, 1)
        dag.insert_edge(1, 0)
        assert events and events[0][0] == "merge"

    def test_split_callback(self):
        events = []
        dag = DynamicDAG()
        dag.insert_edge(0, 1)
        dag.insert_edge(1, 0)
        dag.on_split = lambda old, new: events.append(("split", len(new)))
        dag.delete_edge(0, 1)
        assert events == [("split", 2)]


def _build(edges):
    dag = DynamicDAG()
    for u, v in edges:
        dag.insert_edge(u, v)
    return dag


class TestProportionalMaintenance:
    """Updates cost what they change: the reconnect probe settles
    non-splitting deletes, and the largest component keeps its id."""

    def test_surviving_scc_delete_skips_tarjan(self, monkeypatch):
        dag = _build([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])  # cycle + chord
        calls, events = [], []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = dag_module.strongly_connected_components
        monkeypatch.setattr(dag_module, "strongly_connected_components", counting)
        dag.on_split = lambda old, new: events.append((old, new))
        dag.on_merge = lambda old, new: events.append((old, new))
        cid, members = dag.component_of(0), dag.members[dag.component_of(0)]
        assert dag.delete_edge(1, 3)  # the chord
        assert calls == [] and events == []
        assert dag.reconnect_count == 1 and dag.split_count == 0
        assert dag.probe_visited >= 2
        assert dag.component_of(3) == cid and dag.members[cid] is members
        monkeypatch.undo()
        dag.check_consistency()

    def test_split_on_path_delete_counts_no_reconnect(self):
        dag = _build([(0, 1), (1, 2), (2, 0)])
        dag.delete_edge(0, 1)
        assert dag.reconnect_count == 0 and dag.split_count == 1

    def test_peel_off_keeps_largest_id_and_emits_sinks_first(self):
        # core {0,1,2} with a tail 2 -> 3 -> 4 -> 0 closing one big SCC
        dag = _build([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)])
        cid = dag.component_of(0)
        members = dag.members[cid]
        assert members == {0, 1, 2, 3, 4}
        events = []
        dag.on_split = lambda old, new: events.append((old, list(new)))
        dag.delete_edge(3, 4)
        dag.check_consistency()
        dag.check_invariants()
        assert dag.component_of(0) == cid and dag.members[cid] is members
        assert members == {0, 1, 2}
        (old, new_cids), = events
        assert old == cid and cid in new_cids and len(new_cids) == 3
        # sinks first: every DAG edge among the parts points backwards
        position = {c: i for i, c in enumerate(new_cids)}
        for a in new_cids:
            for b in dag.dag.out_neighbors(a):
                assert position[b] < position[a]
        assert new_cids == [dag.component_of(3), cid, dag.component_of(4)]
        assert min(dag.component_of(3), dag.component_of(4)) > cid  # fresh ids

    def test_merge_keeps_largest_id_and_members_object(self):
        dag = _build([(0, 1), (1, 2), (2, 0), (2, 5), (5, 6), (7, 5)])
        cid = dag.component_of(0)
        members = dag.members[cid]
        retired = {dag.component_of(5), dag.component_of(6)}
        events = []
        dag.on_merge = lambda old, new: events.append((set(old), new))
        dag.insert_edge(6, 1)
        dag.check_consistency()
        dag.check_invariants()
        assert events == [(retired | {cid}, cid)]
        assert dag.members[cid] is members and members == {0, 1, 2, 5, 6}
        assert not retired & set(dag.members)
        assert not retired & set(dag.dag.vertices())
        assert dag._edge_multiplicity == {(dag.component_of(7), cid): 1}

    def test_multiplicity_round_trip_merge_split_merge(self):
        # two parallel edges from {8} into the cycle, two out to {9}
        dag = _build(
            [(0, 1), (1, 2), (2, 3), (3, 0), (8, 1), (8, 3), (1, 9), (3, 9)]
        )
        c8, c9 = dag.component_of(8), dag.component_of(9)
        big = dag.component_of(0)
        assert dag._edge_multiplicity == {(c8, big): 2, (big, c9): 2}
        dag.delete_edge(3, 0)  # cycle falls apart into singletons
        dag.check_consistency()
        assert sum(dag._edge_multiplicity.values()) == 7
        assert dag._edge_multiplicity[(c8, dag.component_of(1))] == 1
        assert dag._edge_multiplicity[(dag.component_of(3), c9)] == 1
        dag.insert_edge(3, 0)  # and back together
        dag.check_consistency()
        dag.check_invariants()
        again = dag.component_of(0)
        assert dag._edge_multiplicity == {(c8, again): 2, (again, c9): 2}

    def test_retired_ids_are_not_reissued(self):
        dag = _build([(0, 1), (1, 0)])
        seen = set(dag.members)
        for _ in range(3):
            dag.delete_edge(1, 0)
            assert not (set(dag.members) - seen) & seen
            fresh = set(dag.members) - seen
            assert all(c > max(seen) for c in fresh)
            seen |= fresh
            dag.insert_edge(1, 0)


def test_churn_replay_on_scale_free_graph_ends_consistent():
    """The served regime in miniature: a giant SCC with a periphery,
    inserts anywhere, deletes inside the giant SCC."""
    rng = random.Random(7)
    n = 1500
    graph = preferential_attachment_graph(n, 4, reciprocal=0.05, seed=3)
    dag = DynamicDAG(graph)
    giant = max(dag.members.values(), key=len)
    assert len(giant) > n // 4
    core_edges = [(u, v) for u, v in graph.edges() if u in giant and v in giant]
    for step, (u, v) in enumerate(rng.sample(core_edges, 150)):
        dag.delete_edge(u, v)
        for _ in range(2):
            dag.insert_edge(rng.randrange(n), rng.randrange(n))
        if step % 25 == 0:
            dag.check_invariants()
    dag.check_invariants()
    dag.check_consistency()
    assert dag.reconnect_count and dag.split_count and dag.merge_count
    assert dag.reconnect_count > dag.split_count  # the SCC usually survives


class TestCheckInvariants:
    def _dag(self):
        return _build([(0, 1), (1, 0), (1, 2), (0, 2), (2, 3)])

    def test_clean_structure_passes(self):
        self._dag().check_invariants()
        DynamicDAG().check_invariants()

    def test_catches_mislabelled_vertex(self):
        dag = self._dag()
        dag.scc_of[0] = dag.component_of(3)
        with pytest.raises(AssertionError):
            dag.check_invariants()

    def test_catches_wrong_multiplicity(self):
        dag = self._dag()
        dag._edge_multiplicity[(dag.component_of(0), dag.component_of(2))] = 1
        with pytest.raises(AssertionError, match="multiplicit"):
            dag.check_invariants()

    def test_catches_missing_dag_edge(self):
        dag = self._dag()
        dag.dag.remove_edge(dag.component_of(2), dag.component_of(3))
        with pytest.raises(AssertionError):
            dag.check_invariants()

    def test_catches_level_that_does_not_rise(self):
        dag = self._dag()
        dag.level[dag.component_of(3)] = dag.level[dag.component_of(2)]
        with pytest.raises(AssertionError, match="does not raise"):
            dag.check_invariants()

    def test_catches_component_without_level(self):
        dag = self._dag()
        del dag.level[dag.component_of(3)]
        with pytest.raises(AssertionError, match="levels"):
            dag.check_invariants()

    def test_catches_cycle_in_condensation(self):
        dag = _build([(0, 1)])
        dag.graph.add_edge(1, 0)  # behind the DAG's back
        c0, c1 = dag.component_of(0), dag.component_of(1)
        dag.dag.add_edge(c1, c0)
        dag._edge_multiplicity[(c1, c0)] = 1
        with pytest.raises(AssertionError, match="cycle"):
            dag.check_invariants()


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 8), st.integers(0, 8)),
        min_size=1,
        max_size=60,
    )
)
def test_property_random_edits_stay_consistent(ops):
    """Any interleaving of inserts and deletes leaves the maintained
    condensation identical to one rebuilt from scratch."""
    dag = DynamicDAG()
    for insert, u, v in ops:
        if insert:
            dag.insert_edge(u, v)
        else:
            dag.delete_edge(u, v)
    dag.check_consistency()
    dag.check_invariants()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_incremental_matches_batch(seed):
    """Inserting a random edge list incrementally produces the same
    condensation as building the final graph from scratch."""
    import random

    rng = random.Random(seed)
    edges = [
        (rng.randrange(10), rng.randrange(10)) for _ in range(25)
    ]
    dag = DynamicDAG()
    for u, v in edges:
        dag.insert_edge(u, v)
    batch = DynamicDAG(DynamicDiGraph(edges=edges))
    incr_sets = {frozenset(m) for m in dag.members.values()}
    batch_sets = {frozenset(m) for m in batch.members.values()}
    assert incr_sets == batch_sets


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=80,
    )
)
def test_property_a_split_leaves_its_parts_at_their_in_edges(ops):
    """After every split each part, the kept id included, sits at the
    least level its DAG in-edges allow. Only split parts are held to it:
    merges and inserts may leave levels loose elsewhere. A delete picks
    an existing edge, so cycles break and splits are common."""
    dag = DynamicDAG()
    splits = []
    dag.on_split = lambda old, parts: splits.append(list(parts))
    level = dag.level
    for insert, u, v in ops:
        edges = sorted(dag.graph.edges())
        if insert or not edges:
            dag.insert_edge(u, v)
        else:
            dag.delete_edge(*edges[(7 * u + v) % len(edges)])
        for part in (p for parts in splits for p in parts):
            assert level[part] == max(
                (level[p] + 1 for p in dag.dag.in_neighbors(part)), default=0
            ), (part, splits)
        splits.clear()
        dag.check_invariants()
