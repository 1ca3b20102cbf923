"""The DL/BL label tier: soundness properties and service integration.

The tier's whole value proposition is *one-sided exactness*: a positive
verdict may only come from a real landmark path, a negative verdict only
from a real containment violation, and anything else must abstain. Every
suite here drives that contract against a BFS oracle — on static builds,
under mixed insert/delete churn with lazy repair interleaved, and through
the full service ladder with faults poisoning the tier.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.labels as labels_module
from repro.graph.digraph import DynamicDiGraph
from repro.graph.labels import LabelIndex
from repro.graph.traversal import is_reachable_bfs
from repro.service import ReachabilityService
from repro.service.batcher import plan_batch
from repro.service.faults import FaultPlan, FaultSpec, plan_by_name

from tests.conftest import force_waves, pending, random_graph, resolved

pytestmark = pytest.mark.labels



@pytest.fixture
def narrow_labels(monkeypatch):
    """Two-word labels: the landmark word and one bloom word."""
    monkeypatch.setattr(labels_module, "LABEL_BITS", 128)


@pytest.fixture
def cooldown(monkeypatch):
    """Set the rebuild cooldown (stale-hit queries before a rebuild)."""
    return lambda queries: monkeypatch.setattr(
        labels_module, "REBUILD_COOLDOWN", queries
    )


def oracle(graph, s, t):
    return is_reachable_bfs(graph, s, t)


def assert_one_sided(idx, graph, pairs):
    """Every non-abstain verdict must match the oracle, scalar and batch."""
    batch = idx.filter_pairs(pairs)
    for (s, t), v in zip(pairs, batch):
        scalar = idx.check(s, t)
        truth = oracle(graph, s, t)
        if scalar is not None:
            assert scalar == truth, (s, t, scalar)
        if v > 0:
            assert truth, (s, t, "false positive")
        elif v < 0:
            assert not truth, (s, t, "false negative")


# ----------------------------------------------------------------------
# Static builds
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("narrow_labels")
class TestBuild:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fresh_build_is_one_sided_exact(self, seed):
        """Every verdict matches the oracle; abstains are allowed (a true
        pair with no landmark witness has no positive proof) but both
        rules must be pulling their weight."""
        graph = random_graph(150, 400, seed=seed)
        for i in range(150, 160):  # island: guaranteed negatives exist
            graph.add_edge(i, i + 1)
        idx = LabelIndex(graph)
        rng = random.Random(seed)
        answered = {True: 0, False: 0}
        for _ in range(400):
            s, t = rng.randrange(161), rng.randrange(161)
            verdict = idx.check(s, t)
            if verdict is not None:
                assert verdict == oracle(graph, s, t), (s, t)
                answered[verdict] += 1
        assert answered[True] > 0 and answered[False] > 0
        assert sum(answered.values()) > 200  # the tier answers, mostly

    def test_batch_matches_scalar(self):
        graph = random_graph(120, 300, seed=7)
        idx = LabelIndex(graph)
        rng = random.Random(7)
        pairs = [
            (rng.randrange(120), rng.randrange(120)) for _ in range(300)
        ]
        verdicts = idx.filter_pairs(pairs)
        for (s, t), v in zip(pairs, verdicts):
            scalar = idx.check(s, t)
            if v > 0:
                assert scalar is True
            elif v < 0:
                assert scalar is False

    def test_unknown_vertices_abstain(self):
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        idx = LabelIndex(graph)
        assert idx.check(0, 99) is None
        assert idx.check(99, 0) is None
        assert list(idx.filter_pairs([(0, 99), (99, 0)])) == [0, 0]

    @pytest.mark.parametrize("identity", [True, False])
    def test_identity_table_indexes_like_searchsorted(self, identity):
        """Ids ``0..n-1`` are rows, indexed directly; any other table
        searches. Either way, strangers (negative, ``>= n``, missing)
        abstain and the verdicts are the searched path's, byte for byte."""
        graph = random_graph(120, 300, seed=5)
        if not identity:
            graph.remove_vertex(60)  # a hole: ids no longer equal rows
        idx = LabelIndex(graph)
        state = idx._state
        assert state.ids_are_rows is identity
        rng = np.random.default_rng(5)
        strangers = [-1, -(2**63), 120, 121, 2**62] + [60] * (not identity)
        known = [3] * len(strangers)
        src = np.concatenate([rng.integers(0, 120, 400), strangers, known])
        dst = np.concatenate([rng.integers(0, 120, 400), known, strangers])
        direct = idx.query_many(src, dst)
        state.ids_are_rows = False
        searched = idx.query_many(src, dst)
        assert direct.dtype == searched.dtype == np.int8
        assert direct.tobytes() == searched.tobytes()
        assert not direct[400:].any()  # every stranger pair abstains
        assert (direct != 0).sum() > 100


# ----------------------------------------------------------------------
# Dynamics: inserts, deletes, lazy repair
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("narrow_labels")
class TestDynamics:
    def test_incremental_inserts_equal_fresh_build(self):
        """In-place OR propagation lands bit-for-bit on the full build."""
        graph = DynamicDiGraph(vertices=range(50))
        for i in range(0, 40, 2):
            graph.add_edge(i, i + 1)
        landmarks = list(range(50))
        inc = LabelIndex(graph, landmarks=landmarks)
        for u, v in [(1, 2), (3, 4), (10, 20), (20, 30), (5, 40), (41, 0)]:
            inc.dag.insert_edge(u, v)
            inc.note_insert(u, v)
        fresh = LabelIndex(graph, landmarks=landmarks)
        si, sf = inc._state, fresh._state
        assert si.version == graph.version
        assert np.array_equal(si.dl, sf.dl)
        assert np.array_equal(si.bl, sf.bl)
        assert inc.summary()["updates"] == 6
        assert inc.summary()["full_rebuilds"] == 0

    def test_redundant_delete_keeps_labels_clean(self):
        graph = DynamicDiGraph(edges=[(0, 1), (0, 2), (2, 1)])
        idx = LabelIndex(graph)
        idx.dag.delete_edge(0, 1)  # 0 still reaches 1 via 2
        idx.note_delete(0, 1, removes_reachability=False)
        assert idx._state.version == graph.version
        assert idx.check(0, 1) is True

    def test_a_reach_cutting_delete_goes_stale_until_rebuilt(self, cooldown):
        """A delete that may cut reach leaves the state stale: every pair
        abstains, an island the delete never touched too, until the
        rebuild restores exact answers."""
        n = 30
        cooldown(1)
        graph = DynamicDiGraph(
            edges=[(i, i + 1) for i in range(n - 1)] + [(40, 41)]
        )
        idx = LabelIndex(graph)
        assert idx.check(40, 41) is True
        idx.dag.delete_edge(20, 21)
        idx.note_delete(20, 21)
        assert idx._state.version != graph.version
        idx.check_invariants()
        ids = [*range(n), 40, 41]
        pairs = [(s, t) for s in ids for t in ids]
        assert not idx.filter_pairs(pairs).any()
        assert all(idx.check(s, t) is None for s, t in pairs)
        idx.observe_query()
        assert idx.summary()["full_rebuilds"] == 1
        assert idx.check(0, 20) is True and idx.check(0, 21) is False
        assert idx.check(40, 41) is True
        assert_one_sided(idx, graph, pairs)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from("+-~?"),
                st.integers(0, 13),
                st.integers(0, 13),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_the_state_is_exact_or_stale(self, ops, cooldown):
        """After every update and every query the state is exact — at
        the graph's version and bit for bit a fresh pinned build — or
        stale, and then every pair abstains in ``check`` and in
        ``query_many``. ``+`` inserts (ids 12 and 13 are new vertices),
        ``-`` deletes an existing edge with the flag the oracle gives it
        (a split or a cut goes stale, a redundant delete stays exact),
        ``~`` deletes one flagged as cutting reach whatever it does, and
        ``?`` is a query that may rebuild."""
        cooldown(1)
        n = 12
        graph = random_graph(n, 18, seed=len(ops))
        landmarks = list(range(n + 2))
        idx = LabelIndex(graph, landmarks=landmarks)
        ids = range(n + 2)
        pairs = [(s, t) for s in ids for t in ids]
        for op, a, b in ops:
            edges = sorted(graph.edges())
            if op == "+" or not edges:
                if idx.dag.insert_edge(a, b):
                    idx.note_insert(a, b)
            elif op == "?":
                idx.observe_query()
            else:
                u, v = edges[(14 * a + b) % len(edges)]
                idx.dag.delete_edge(u, v)
                idx.note_delete(
                    u, v,
                    removes_reachability=(
                        op == "~" or not is_reachable_bfs(graph, u, v)
                    ),
                )
            state = idx._state
            if state.version == graph.version:
                fresh = LabelIndex(graph.copy(), landmarks=landmarks)._state
                assert state.dl.tobytes() == fresh.dl.tobytes(), op
                assert state.bl.tobytes() == fresh.bl.tobytes(), op
            else:
                assert all(idx.check(s, t) is None for s, t in pairs), op
                assert not idx.filter_pairs(pairs).any(), op

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_churn_soundness_property(self, seed, cooldown):
        """Mixed insert/delete churn with lazy repair interleaved: no
        false positive from the landmark rule, no false negative from
        the containment rule, and a well-formed state, at any
        intermediate state."""
        rng = random.Random(seed)
        n = 120
        graph = DynamicDiGraph(vertices=range(n))
        edges = set()
        for _ in range(300):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in edges:
                graph.add_edge(u, v)
                edges.add((u, v))
        cooldown(8)
        idx = LabelIndex(graph)
        for step in range(150):
            action = rng.random()
            if action < 0.5 or not edges:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in edges:
                    continue
                idx.dag.insert_edge(u, v)
                edges.add((u, v))
                idx.note_insert(u, v)
            elif action < 0.85:
                u, v = rng.choice(sorted(edges))
                edges.remove((u, v))
                idx.dag.delete_edge(u, v)
                idx.note_delete(u, v)
            else:
                idx.observe_query()
            idx.check_invariants()
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(12)
            ]
            assert_one_sided(idx, graph, pairs)
        assert idx.summary()["full_rebuilds"] > 0

    def test_version_desync_abstains(self):
        """A graph mutation the tier was never told about must not be
        answered from the stale matrices."""
        graph = DynamicDiGraph(edges=[(0, 1)])
        idx = LabelIndex(graph)
        graph.add_edge(1, 2)  # applied behind the tier's back
        assert idx.check(0, 2) is None
        assert idx.summary()["stale_abstains"] >= 1

    def test_a_dag_the_graph_moved_past_is_never_read(
        self, monkeypatch, cooldown
    ):
        """Once the graph moves behind the DAG, no rebuild reads it —
        not the lazy one, not a construction over it — and the DAG's own
        later updates do not make it current again."""
        cooldown(1)
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        idx = LabelIndex(graph)
        graph.add_edge(2, 3)  # behind the DAG's back
        idx.dag.insert_edge(3, 4)
        assert idx.dag.version != graph.version

        def unreadable(ids):
            raise AssertionError("read a DAG the graph moved past")

        monkeypatch.setattr(idx.dag, "components_of", unreadable)
        for _ in range(3):
            idx.observe_query()
        assert idx.summary()["full_rebuilds"] == 0
        assert idx.check(0, 2) is None and idx.check(2, 0) is None
        again = LabelIndex(idx.dag)
        assert again.check(0, 1) is None
        assert again.summary()["vertices"] == 0

    def test_insert_past_the_frontier_limit_goes_stale(
        self, monkeypatch, cooldown
    ):
        """An insert whose propagation would update more rows than the
        limit leaves the state stale: both rule directions abstain until
        the rebuild, which answers exactly again."""
        monkeypatch.setattr(labels_module, "INSERT_FRONTIER_LIMIT", 3)
        cooldown(1)
        n = 40
        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(n - 1)])
        graph.add_vertex(n)
        idx = LabelIndex(graph, landmarks=[n])
        idx.dag.insert_edge(n - 1, n)  # every vertex gains n downstream
        idx.note_insert(n - 1, n)
        assert idx._state.version != graph.version
        idx.check_invariants()
        pairs = [(s, t) for s in range(n + 1) for t in range(n + 1)]
        assert not idx.filter_pairs(pairs).any()
        assert all(idx.check(s, t) is None for s, t in pairs)
        idx.observe_query()
        assert idx.summary()["full_rebuilds"] == 1
        verdicts = idx.filter_pairs(pairs)
        assert (verdicts > 0).any() and (verdicts < 0).any()
        assert_one_sided(idx, graph, pairs)


@pytest.mark.usefixtures("narrow_labels")
class TestCheckInvariants:
    def _idx(self):
        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(5)])
        return LabelIndex(graph)

    def test_clean_and_tainted_states_pass(self):
        idx = self._idx()
        idx.check_invariants()
        idx.dag.delete_edge(2, 3)
        idx.note_delete(2, 3)
        idx.check_invariants()

    def test_catches_an_exact_state_without_a_row_per_vertex(self):
        idx = self._idx()
        idx.dag.add_vertex(9)  # stale: the state has no row for 9
        idx.check_invariants()
        idx._state.version = idx.dag.graph.version  # claim it is exact
        with pytest.raises(AssertionError, match="rows"):
            idx.check_invariants()


# ----------------------------------------------------------------------
# Batch planner integration
# ----------------------------------------------------------------------
class TestPlanBatch:
    def test_label_filter_resolves_before_waves(self):
        graph = DynamicDiGraph(
            edges=[(i, i + 1) for i in range(6)] + [(10, 11)]
        )
        pairs = [(0, 5), (5, 0), (0, 11), (1, 4)]

        def fake_filter(pending):
            verdict = {(0, 5): 1, (5, 0): -1, (0, 11): -1, (1, 4): 0}
            return [verdict[p] for p in pending]

        plan = plan_batch(pairs, graph=graph, label_filter=fake_filter)
        assert resolved(plan)[(0, 5)] == (True, "labels", "label-pos")
        assert resolved(plan)[(5, 0)] == (False, "labels", "label-neg")
        assert resolved(plan)[(0, 11)] == (False, "labels", "label-neg")
        assert pending(plan) == [(1, 4)]
        assert plan.label_pos == 1 and plan.label_neg == 2
        assert plan.prefilter_hits == 0  # labels counted separately

    def test_unavailable_filter_leaves_batch_untouched(self):
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        plan = plan_batch(
            [(0, 2), (2, 0)], graph=graph, label_filter=lambda pairs: None
        )
        assert not resolved(plan)
        assert sorted(pending(plan)) == [(0, 2), (2, 0)]


# ----------------------------------------------------------------------
# Service ladder integration
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def _hard_graph(self, seed=9):
        # Sparse enough that the fast path abstains on plenty of pairs.
        return random_graph(200, 260, seed=seed)

    def test_scalar_ladder_resolves_via_labels(self):
        graph = self._hard_graph()
        rng = random.Random(1)
        with ReachabilityService(
            graph.copy(), num_supportive=0
        ) as svc:
            hits = 0
            for _ in range(300):
                s, t = rng.randrange(200), rng.randrange(200)
                out = svc.query(s, t)
                assert out.confident
                assert out.answer == oracle(graph, s, t), (s, t, out.via)
                hits += out.via == "labels"
            counters = svc.stats()["counters"]
            assert hits > 0
            assert (
                counters.get("label_hits_pos", 0)
                + counters.get("label_hits_neg", 0)
                == hits
            )
            assert svc.stats()["labels"]["bits"] == 256

    def test_label_plan_is_resolved_with_detail(self):
        graph = DynamicDiGraph(
            edges=[(i, i + 1) for i in range(8)] + [(20, 21)]
        )
        with ReachabilityService(
            graph, num_supportive=0
        ) as svc:
            outcome = svc.query(0, 21)
            assert outcome.via == "labels"
            assert outcome.detail == "label-neg"
            assert outcome.answer is False
            assert outcome.confident

    def test_batched_ladder_matches_label_free_service(self):
        graph = self._hard_graph(seed=11)
        rng = random.Random(2)
        pairs = [
            (rng.randrange(200), rng.randrange(200)) for _ in range(256)
        ]
        with ReachabilityService(
            graph.copy(), use_labels=True
        ) as on_svc:
            labelled = force_waves(on_svc).query_batch(pairs)
            on_counters = on_svc.stats()["counters"]
        with ReachabilityService(
            graph.copy(), use_labels=False
        ) as off_svc:
            unlabelled = force_waves(off_svc).query_batch(pairs)
            assert off_svc.stats()["counters"]["bit_waves"] > 0
        for (s, t), a, b in zip(pairs, labelled, unlabelled):
            truth = oracle(graph, s, t)
            assert a.answer == truth and b.answer == truth, (s, t)
        assert (
            on_counters.get("label_hits_pos", 0)
            + on_counters.get("label_hits_neg", 0)
            > 0
        )

    def test_update_path_keeps_labels_exact_through_service(self):
        graph = self._hard_graph(seed=13)
        rng = random.Random(3)
        with ReachabilityService(
            graph.copy(), num_supportive=0
        ) as svc:
            for step in range(120):
                u, v = rng.randrange(200), rng.randrange(200)
                if u == v:
                    continue
                if rng.random() < 0.6 and not svc.graph.has_edge(u, v):
                    svc.add_edge(u, v)
                    graph.add_edge(u, v)
                elif svc.graph.has_edge(u, v):
                    svc.remove_edge(u, v)
                    graph.remove_edge(u, v)
                s, t = rng.randrange(200), rng.randrange(200)
                out = svc.query(s, t)
                assert out.answer == oracle(graph, s, t), (step, s, t)
            counters = svc.stats()["counters"]
            assert counters.get("label_updates", 0) > 0

    def test_churn_through_the_service_lands_on_a_fresh_build(self, cooldown):
        """Merges, splits and reach-cutting deletes through the service,
        then a rebuild, twice over: each lands bit for bit on a fresh
        pinned-landmark build of the same graph. The
        tier reads the pruner's DAG, and both stay well formed at every
        step."""
        rng = random.Random(17)
        n = 60
        with ReachabilityService(
            random_graph(n, 110, seed=17), num_supportive=0
        ) as svc:
            labels = svc.labels
            assert labels.dag is svc.pruner.dag

            def churn(steps):
                for _ in range(steps):
                    u, v = rng.randrange(n), rng.randrange(n)
                    if svc.graph.has_edge(u, v):
                        svc.remove_edge(u, v)
                    elif u != v:
                        svc.add_edge(u, v)
                    labels.check_invariants()
                    svc.pruner.dag.check_invariants()
                # Some delete cut reach, and no query has rebuilt since.
                assert labels._state.version != svc.graph.version

            def assert_fresh():
                # A full rebuild re-ranks the hubs: pin the current ones.
                bit_of = labels._landmark_bit
                fresh = LabelIndex(
                    svc.graph.copy(), landmarks=sorted(bit_of, key=bit_of.get)
                )
                assert labels._state.version == svc.graph.version
                assert labels._state.dl.tobytes() == fresh._state.dl.tobytes()
                assert labels._state.bl.tobytes() == fresh._state.bl.tobytes()

            cooldown(1)
            for rebuilds in (1, 2):
                churn(80)
                labels.observe_query()
                assert labels.summary()["full_rebuilds"] == rebuilds
                labels.check_invariants()
                assert_fresh()
            counters = svc.stats()["counters"]
            assert counters["dag_merges"] and counters["dag_splits"]

    def test_use_labels_false_never_builds_the_tier(self):
        graph = DynamicDiGraph(edges=[(0, 1)])
        with ReachabilityService(graph, use_labels=False) as svc:
            assert svc.labels is None
            assert svc.query(0, 1).answer is True


# ----------------------------------------------------------------------
# Fault containment: a poisoned tier must degrade, never corrupt
# ----------------------------------------------------------------------
class TestFaultContainment:
    def test_label_poison_plan_falls_through(self):
        """Every label probe errors; answers stay exact via the rest of
        the ladder and the errors are counted."""
        graph = random_graph(80, 160, seed=21)
        rng = random.Random(4)
        with ReachabilityService(
            graph.copy(),
            num_supportive=0,  # weaken the fast path so labels are probed
            fault_plan=plan_by_name("label-poison"),
        ) as svc:
            for _ in range(60):
                s, t = rng.randrange(80), rng.randrange(80)
                out = svc.query(s, t)
                assert out.answer == oracle(graph, s, t), (s, t)
                assert out.via != "labels"
            counters = svc.stats()["counters"]
            if svc.labels is not None:
                assert counters.get("stage_errors_labels", 0) >= 1
                assert counters.get("label_hits_pos", 0) == 0
                assert counters.get("label_hits_neg", 0) == 0

    def test_poisoned_batch_prefilter_still_answers(self):
        graph = random_graph(80, 160, seed=22)
        rng = random.Random(5)
        pairs = [(rng.randrange(80), rng.randrange(80)) for _ in range(64)]
        with ReachabilityService(
            graph.copy(),
            fault_plan=plan_by_name("label-poison"),
        ) as svc:
            outcomes = svc.query_batch(pairs)
            for (s, t), out in zip(pairs, outcomes):
                assert out.answer == oracle(graph, s, t), (s, t)

    def test_update_hook_failure_quarantines_tier(self, monkeypatch):
        """A label maintenance error mid-propagation leaves the tier stale
        (abstain-all) instead of leaving a wrong matrix serving verdicts:
        the stamp is the hook's last statement. The insert joins two
        existing vertices, so only the failure keeps the stamp off."""
        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(6)])
        with ReachabilityService(
            graph, num_supportive=0
        ) as svc:
            assert svc.query(0, 6).via == "labels"

            def boom(*args):
                raise RuntimeError("label update exploded")

            monkeypatch.setattr(svc.labels, "_propagate", boom)
            svc.add_edge(0, 3)  # survives; labels quarantined
            assert svc.graph.has_edge(0, 3)
            assert svc.labels.summary()["version"] != svc.graph.version
            counters = svc.stats()["counters"]
            assert counters.get("stage_errors_labels", 0) >= 1
            # The tier abstains now (the state is stale), the ladder answers.
            out = svc.query(0, 6)
            assert out.via != "labels"
            assert out.answer is True

    def test_a_failing_probe_abstains_until_it_recovers(self, monkeypatch):
        """A label probe that raises on every walk abstains on each one,
        like every other index rung, and the tier answers again once the
        probe stops raising."""
        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(26)])
        with ReachabilityService(
            graph, num_supportive=0
        ) as svc:
            def boom(source, target):
                raise RuntimeError("label check exploded")

            monkeypatch.setattr(svc.labels, "check", boom)
            # Distinct pairs: the cache rung sits above the label rung,
            # so a repeated pair would never reach the broken probe.
            for target in range(6, 26):
                out = svc.query(0, target)
                assert (out.answer, out.confident) == (True, True)
                assert out.via != "labels"
            assert svc.stats()["counters"]["stage_errors_labels"] == 20
            monkeypatch.undo()
            assert svc.query(1, 6).via == "labels"

    def test_failing_probe_is_contained_at_every_width(self, monkeypatch):
        """One pending pair takes the scalar ``check`` (through
        ``filter_pairs``), several the vectorised ``query_many``; either
        failing only abstains."""
        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(12)])
        with ReachabilityService(
            graph, num_supportive=0
        ) as svc:
            def boom(*args):
                raise RuntimeError("label probe exploded")

            monkeypatch.setattr(svc.labels, "query_many", boom)
            assert svc.query(0, 5).via == "labels"  # width 1: check
            outcomes = svc.query_batch([(0, 6), (1, 7), (2, 8)])
            assert [o.answer for o in outcomes] == [True, True, True]
            assert all(o.via != "labels" for o in outcomes)
            monkeypatch.setattr(svc.labels, "check", boom)
            assert svc.query(0, 9).answer is True
            assert svc.stats()["counters"]["stage_errors_labels"] == 2

    def test_stage_errors_plan_survives_oracle_check(self):
        graph = random_graph(100, 220, seed=23)
        rng = random.Random(6)
        plan = FaultPlan(
            "labels-flaky", (FaultSpec("labels", probability=0.5),), seed=1
        )
        with ReachabilityService(
            graph.copy(), fault_plan=plan
        ) as svc:
            for _ in range(120):
                s, t = rng.randrange(100), rng.randrange(100)
                out = svc.query(s, t)
                if out.confident:
                    assert out.answer == oracle(graph, s, t), (s, t)
