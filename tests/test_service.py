"""Tests for the query-serving engine (`repro.service`).

Covers each pipeline stage in isolation (fast-path observations, the
versioned cache's asymmetric invalidation, the degraded bounded search),
the update routing that keeps them consistent, and — the load-bearing
guarantee — a multi-threaded stress test asserting every confident answer
matches a BFS oracle replayed on the exact snapshot version it was
produced at.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.scale_free import preferential_attachment_graph
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.service import (
    FaultPlan,
    FaultSpec,
    ReachabilityService,
    RWLock,
    VersionedQueryCache,
    replay_workload,
)
from repro.service import engine, fastpath
from repro.service.engine import _bounded_bibfs
from repro.service.fastpath import FastPathPruner
from repro.service.stats import ServiceStats
from repro.workloads.mixed import INSERT, Op, generate_mixed_workload

from tests.conftest import force_waves, random_graph
from tests.oracles import choose_supportive_by_sort


# ----------------------------------------------------------------------
# Fast-path pruner
# ----------------------------------------------------------------------
class TestFastPathPruner:
    def test_trivial_rules(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        pruner = FastPathPruner(g)
        assert pruner.check(0, 0) == (True, "identity")
        assert pruner.check(0, 99) == (False, "missing-endpoint")
        assert pruner.check(2, 0) == (False, "source-sink")  # d_out(2) = 0
        assert pruner.check(1, 0)[0] is False  # d_in(0) = 0 or topo

    def test_same_scc_positive(self, two_scc_graph):
        pruner = FastPathPruner(two_scc_graph)
        assert pruner.check(0, 2) == (True, "same-scc")
        assert pruner.check(4, 3) == (True, "same-scc")

    def test_topo_level_refutes_backward_queries(self, line_graph):
        pruner = FastPathPruner(line_graph, num_supportive=0)
        answer, rule = pruner.check(3, 1)
        assert answer is False
        assert rule == "topo-level"

    def test_supportive_sets_prove_and_refute(self):
        # 0 -> 1 -> 2 and isolated-ish 3 -> 4; vertex 1 is the top hub.
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (3, 4), (1, 5), (6, 1)])
        pruner = FastPathPruner(g, num_supportive=1)
        assert list(pruner._samples.vertices) == [1]
        assert pruner.check(0, 2) == (True, "supportive-bridge")
        # 2 is in F(1) ... no: 2 not in F? F(1) = {1,2,5}; 4 not in F(1).
        assert pruner.check(1, 4)[0] is False

    def test_observations_always_agree_with_oracle(self):
        rng = random.Random(0)
        g = random_graph(40, 120, seed=2)
        pruner = FastPathPruner(g, num_supportive=3, seed=1)
        for _ in range(600):
            s, t = rng.randrange(40), rng.randrange(40)
            observed = pruner.check(s, t)
            if observed is not None:
                assert observed[0] == is_reachable_bfs(g, s, t), (s, t, observed)

    def test_agreement_maintained_under_updates(self, monkeypatch):
        monkeypatch.setattr(fastpath, "REBUILD_COOLDOWN", 1)
        rng = random.Random(3)
        g = random_graph(30, 60, seed=4)
        pruner = FastPathPruner(g, num_supportive=3, seed=1)
        for step in range(250):
            if rng.random() < 0.5:
                pruner.apply_insert(rng.randrange(30), rng.randrange(30))
            else:
                edges = list(g.edges())
                if edges:
                    u, v = edges[rng.randrange(len(edges))]
                    pruner.apply_delete(u, v)
            pruner.observe_query()
            s, t = rng.randrange(30), rng.randrange(30)
            observed = pruner.check(s, t)
            if observed is not None:
                assert observed[0] == is_reachable_bfs(g, s, t), (
                    step,
                    s,
                    t,
                    observed,
                )

    def test_level_invariant_after_merge_and_split(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 3)])
        pruner = FastPathPruner(g, num_supportive=0)
        pruner.apply_insert(3, 0)  # merge the whole chain into one SCC
        assert pruner.check(3, 1) == (True, "same-scc")
        pruner.apply_delete(3, 0)  # split back apart
        assert pruner.check(3, 1)[0] is False
        # invariant: every DAG edge strictly increases the level
        pruner.dag.check_invariants()
        assert pruner.dag.merge_count == 1 and pruner.dag.split_count == 1

    def test_insert_extends_samples_exactly(self):
        g = DynamicDiGraph(edges=[(0, 1), (0, 2), (5, 0), (3, 4)])
        pruner = FastPathPruner(g, num_supportive=1)  # hub 0
        assert list(pruner._samples.vertices) == [0]
        assert pruner.check(5, 4) is None or pruner.check(5, 4)[0] is False
        pruner.apply_insert(2, 3)  # now 0 reaches 3 and 4
        assert pruner._samples.valid
        assert pruner.check(5, 4) == (True, "supportive-bridge")

    def test_delete_invalidates_then_cooldown_rebuilds(self, monkeypatch):
        monkeypatch.setattr(fastpath, "REBUILD_COOLDOWN", 3)
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (0, 3), (4, 0)])
        pruner = FastPathPruner(g, num_supportive=1)
        assert pruner._samples.valid
        pruner.apply_delete(1, 2)  # removes reachability -> invalidates
        assert not pruner._samples.valid
        pruner.observe_query()
        pruner.observe_query()
        assert not pruner._samples.valid  # cooldown not reached
        pruner.observe_query()
        assert pruner._samples.valid
        assert pruner.sample_rebuilds == 1

    def test_neutral_delete_keeps_samples(self):
        # Deleting 1->2 leaves the condensation untouched: the SCC {0,1}
        # still reaches component {2} through the parallel edge 0->2.
        g = DynamicDiGraph(edges=[(0, 1), (1, 0), (0, 2), (1, 2), (0, 3)])
        pruner = FastPathPruner(g, num_supportive=2)
        effect = pruner.apply_delete(1, 2)
        assert effect.changed and not effect.removes_reachability
        assert pruner._samples.valid

    def test_supportive_choice_matches_a_full_degree_sort(self):
        """The hubs come from a heap over the vertices, not a sort of all
        of them: the same list, on a graph whose top two degrees tie."""
        g = preferential_attachment_graph(300, 3, reciprocal=0.05, seed=20)
        top = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        assert top[0] == top[1]
        for count in range(1, 9):
            for seed in range(5):
                got = fastpath._choose_supportive(g, count, random.Random(seed))
                want = choose_supportive_by_sort(g, count, random.Random(seed))
                assert got == want, (count, seed)


# ----------------------------------------------------------------------
# Versioned cache
# ----------------------------------------------------------------------
class TestVersionedQueryCache:
    def test_positive_survives_insertion(self):
        cache = VersionedQueryCache(8)
        cache.put(0, 1, True, version=5)
        cache.note_update(6, adds_reachability=True, removes_reachability=False)
        assert cache.get(0, 1) is True

    def test_negative_killed_by_insertion(self):
        cache = VersionedQueryCache(8)
        cache.put(0, 1, False, version=5)
        cache.note_update(6, adds_reachability=True, removes_reachability=False)
        assert cache.get(0, 1) is None
        assert cache.stale_evictions == 1

    def test_negative_survives_deletion(self):
        cache = VersionedQueryCache(8)
        cache.put(0, 1, False, version=5)
        cache.note_update(6, adds_reachability=False, removes_reachability=True)
        assert cache.get(0, 1) is False

    def test_positive_killed_by_deletion(self):
        cache = VersionedQueryCache(8)
        cache.put(0, 1, True, version=5)
        cache.note_update(6, adds_reachability=False, removes_reachability=True)
        assert cache.get(0, 1) is None

    def test_entry_stamped_after_barrier_is_valid(self):
        cache = VersionedQueryCache(8)
        cache.note_update(6, adds_reachability=True, removes_reachability=True)
        cache.put(0, 1, True, version=6)
        assert cache.get(0, 1) is True

    def test_put_refuses_already_stale_entry(self):
        cache = VersionedQueryCache(8)
        cache.note_update(9, adds_reachability=True, removes_reachability=True)
        cache.put(0, 1, True, version=5)  # raced with an update
        assert cache.peek(0, 1) is None

    def test_lru_eviction(self):
        cache = VersionedQueryCache(2)
        cache.put(0, 1, True, 1)
        cache.put(0, 2, True, 1)
        assert cache.get(0, 1) is True  # touch -> most recent
        cache.put(0, 3, True, 1)
        assert cache.peek(0, 2) is None  # evicted as least recent
        assert cache.peek(0, 1) is not None

    def test_put_many_stores_batch(self):
        cache = VersionedQueryCache(8)
        cache.put_many([((0, 1), True), ((1, 2), False)], version=3)
        assert cache.get(0, 1) is True
        assert cache.get(1, 2) is False

    def test_put_many_respects_capacity(self):
        cache = VersionedQueryCache(2)
        cache.put_many(
            [((0, 1), True), ((0, 2), True), ((0, 3), True)], version=1
        )
        assert cache.peek(0, 1) is None  # oldest of the batch evicted
        assert cache.peek(0, 2) is not None
        assert cache.peek(0, 3) is not None

    def test_put_many_unconfident_rejected(self):
        cache = VersionedQueryCache(8)
        cache.put_many([((0, 1), True)], version=1, confident=False)
        assert cache.peek(0, 1) is None
        assert cache.unconfident_rejections == 1

    def test_put_many_skips_already_stale_entries(self):
        cache = VersionedQueryCache(8)
        cache.note_update(9, adds_reachability=True, removes_reachability=False)
        # A negative stamped before the insertion barrier raced with the
        # update and must be refused; the fresh entry lands.
        cache.put_many([((0, 1), False), ((1, 2), True)], version=5)
        assert cache.peek(0, 1) is None
        assert cache.get(1, 2) is True

    @pytest.mark.parametrize(
        "neg, pos", [(4, 8), (8, 4), (0, 0), (9, 9)],
        ids=["keeps-negatives", "keeps-positives", "keeps-all", "keeps-none"],
    )
    def test_put_many_is_one_put_per_entry(self, neg, pos):
        """At version 6 between the barriers (or above or below both), a
        mixed batch into a full cache leaves the same entries, LRU order
        and counters as one ``put`` per entry."""
        rng = random.Random(neg * 10 + pos)
        caches = [VersionedQueryCache(16), VersionedQueryCache(16)]
        for cache in caches:
            for i in range(16):
                cache.put(0, i, i % 2 == 0, version=1)
            cache.get(0, 3)
            cache.note_update(
                neg, adds_reachability=True, removes_reachability=False
            )
            cache.note_update(
                pos, adds_reachability=False, removes_reachability=True
            )
        batch = [
            ((0, rng.randrange(24)), rng.random() < 0.5) for _ in range(20)
        ]
        one_by_one, at_once = caches
        for (s, t), answer in batch:
            one_by_one.put(s, t, answer, version=6)
        at_once.put_many(batch, version=6)
        entries = list(at_once._entries.items())
        assert entries == list(one_by_one._entries.items())
        for counter in (
            "hits", "misses", "stale_evictions", "unconfident_rejections"
        ):
            assert getattr(at_once, counter) == getattr(one_by_one, counter)


# ----------------------------------------------------------------------
# Degraded bounded search
# ----------------------------------------------------------------------
class TestBoundedBiBFS:
    def test_meet_is_exact(self, diamond_graph):
        assert _bounded_bibfs(diamond_graph, 0, 3, 100) == (True, True, "meet")

    def test_exhaustion_is_exact(self, line_graph):
        answer, exact, detail = _bounded_bibfs(line_graph, 4, 0, 100)
        assert (answer, exact) == (False, True)

    def test_budget_overrun_is_unconfident(self):
        g = DynamicDiGraph(edges=[(i, i + 1) for i in range(50)])
        answer, exact, detail = _bounded_bibfs(g, 0, 49, budget=3)
        assert exact is False
        assert detail == "budget-exhausted"


# ----------------------------------------------------------------------
# The service pipeline
# ----------------------------------------------------------------------
class TestReachabilityService:
    def test_stage_progression(self, line_graph):
        # use_labels=False: these golden stage assertions pin the pre-label
        # ladder; the label stage has its own progression tests.
        with ReachabilityService(
            line_graph, num_supportive=0, use_labels=False
        ) as svc:
            out = svc.query(0, 4)
            assert out.via == "engine" and out.answer is True
            again = svc.query(0, 4)
            assert again.via == "cache" and again.answer is True
            assert svc.query(4, 0).via == "fastpath"

    def test_matches_oracle_on_random_graph(self):
        g = random_graph(35, 90, seed=9)
        shadow = g.copy()
        with ReachabilityService(g, num_supportive=3, seed=2) as svc:
            for s in range(35):
                for t in range(35):
                    out = svc.query(s, t)
                    assert out.confident
                    assert out.answer == is_reachable_bfs(shadow, s, t), (s, t)

    def test_update_invalidates_only_what_it_must(self, line_graph):
        with ReachabilityService(
            line_graph, num_supportive=0, use_labels=False
        ) as svc:
            assert svc.query(0, 4).answer is True
            assert svc.query(0, 4).via == "cache"
            # An insertion elsewhere cannot invalidate a positive entry.
            effect = svc.add_edge(10, 0)
            assert effect.adds_reachability
            assert svc.query(0, 4).via == "cache"
            # A reachability-removing deletion must invalidate it.
            svc.remove_edge(2, 3)
            out = svc.query(0, 4)
            assert out.via != "cache"
            assert out.answer is False

    def test_neutral_update_keeps_cache(self, two_scc_graph):
        with ReachabilityService(
            two_scc_graph, num_supportive=0, use_labels=False
        ) as svc:
            svc.query(0, 4)
            assert svc.query(0, 4).via == "cache"
            effect = svc.add_edge(0, 2)  # inside the SCC {0,1,2}: neutral
            assert effect.changed
            assert not effect.adds_reachability
            assert svc.query(0, 4).via == "cache"
            assert svc.stats()["counters"]["neutral_updates"] == 1

    def test_deadline_degrades_instead_of_blocking(self, monkeypatch):
        g = DynamicDiGraph(edges=[(i, i + 1) for i in range(30)])
        monkeypatch.setattr(engine, "DEGRADE_BUDGET", 4)
        with ReachabilityService(
            g, num_supportive=0, use_labels=False
        ) as svc:
            out = svc.query(0, 29, deadline_s=0.0)
            assert out.via == "degraded"
            assert out.confident is False
            assert svc.stats()["counters"]["degraded"] == 1

    def test_degraded_meet_is_cached_and_confident(self, diamond_graph):
        with ReachabilityService(
            diamond_graph, num_supportive=0, use_labels=False
        ) as svc:
            out = svc.query(0, 3, deadline_s=0.0)
            assert out.via == "degraded" and out.confident and out.answer
            assert svc.query(0, 3).via == "cache"

    def test_submit_and_batch_dedup(self, diamond_graph):
        """Repeated pairs of a batch are answered once and fanned back
        out (there is no ``submit``: the caller's thread asks)."""
        with ReachabilityService(diamond_graph) as svc:
            assert svc.query(0, 3).answer is True
            outcomes = svc.query_batch([(0, 3), (0, 3), (1, 2), (0, 3)])
            assert [o.answer for o in outcomes] == [True, True, False, True]
            assert svc.stats()["counters"]["batched_dedup"] == 2

    @pytest.mark.parametrize("floor", [1, 1 << 30], ids=["columnar", "scalar"])
    def test_queries_counts_a_batchs_distinct_pairs(
        self, diamond_graph, monkeypatch, floor
    ):
        """``queries`` counts each distinct pair a walk answers once, as
        ``batched_dedup`` counts the repeats, in either index body."""
        monkeypatch.setattr(engine, "COLUMNAR_MIN_PAIRS", floor)
        with ReachabilityService(diamond_graph) as svc:
            svc.graph.csr()
            svc.query_batch([(0, 3), (0, 3), (1, 2), (0, 3)])
            counters = svc.stats()["counters"]
            assert (counters["queries"], counters["batched_dedup"]) == (2, 2)
            assert bool(svc.pruner.view_builds) == (floor == 1)

    def test_a_fleet_call_that_raises_still_counts_its_batch(self):
        """``shard_batches`` counts the calls made, not the ones that
        returned: a raising fleet is counted, then contained."""

        class RaisingRouter:
            def execute_batch(self, pairs, **kwargs):
                raise RuntimeError("fleet down")

        graph = random_graph(60, 90, seed=4)
        with ReachabilityService(graph, num_supportive=0, use_labels=False) as svc:
            svc._shards = 2
            svc._shard_router = lambda version: RaisingRouter()
            outcomes = svc.query_batch([(s, t) for s in range(20) for t in range(20)])
            counters = svc.stats()["counters"]
        assert counters["stage_errors_shard"] == counters["shard_batches"] == 1
        assert all(o.via != "shard" for o in outcomes)

    def test_outcome_version_identifies_snapshot(self, line_graph):
        with ReachabilityService(line_graph, num_supportive=0) as svc:
            v0 = svc.graph.version
            assert svc.query(0, 4).version == v0
            effect = svc.add_edge(50, 51)
            assert effect.version > v0
            assert svc.query(0, 4).version == effect.version

    def test_stats_surface_shape(self, diamond_graph):
        with ReachabilityService(diamond_graph) as svc:
            svc.query(0, 3)
            svc.add_edge(7, 8)
            snapshot = svc.stats()
            assert {"counters", "derived", "latency", "graph"} <= set(snapshot)
            assert snapshot["counters"]["queries"] == 1
            assert snapshot["graph"]["version"] == svc.graph.version

    def test_stats_surface_condensation_counters(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        with ReachabilityService(g, num_supportive=0) as svc:
            before = svc.stats()["counters"]
            assert [before[k] for k in (
                "dag_merges", "dag_splits", "dag_reconnects", "dag_probe_visited"
            )] == [0, 0, 0, 0]
            effect = svc.remove_edge(1, 3)  # chord: the SCC survives
            assert effect.changed and not effect.removes_reachability
            svc.remove_edge(3, 0)  # the cycle falls apart
            svc.add_edge(3, 0)  # and closes again
            after = svc.stats()["counters"]
            assert after["dag_reconnects"] == 1
            assert after["dag_splits"] == 1 and after["dag_merges"] == 1
            assert after["dag_probe_visited"] >= 4
            assert svc.query(2, 1).answer

    def test_closed_service_rejects_submissions(self, diamond_graph):
        svc = ReachabilityService(diamond_graph)
        svc.close()
        with pytest.raises(RuntimeError):
            svc.query_batch([(0, 3)])
        with pytest.raises(RuntimeError):
            svc.query(0, 3)
        with pytest.raises(RuntimeError):
            svc.add_edge(3, 0)

    def test_replay_workload_roundtrip(self):
        g = random_graph(30, 80, seed=5)
        ops = generate_mixed_workload(g, 200, query_ratio=0.8, seed=6)
        with ReachabilityService(g.copy()) as svc:
            result = replay_workload(svc, ops)
        assert result.num_queries + result.num_updates == 200
        assert len(result.outcomes) == result.num_queries
        assert result.stats["counters"]["queries"] == result.num_queries

    def test_wave_dropout_is_counted_once(self, line_graph, monkeypatch):
        """A batch pair that drops from the wave rung to the engine rung
        stays on the walk: one cache miss, one query, one observation —
        it does not re-enter the ladder and count a second time."""
        faults = FaultPlan("t", (FaultSpec("engine", max_fires=1),))
        pairs = [(0, 4), (1, 4), (0, 3)]
        with ReachabilityService(
            line_graph, num_supportive=0, use_labels=False,
            fault_plan=faults,
        ) as svc:
            observed = []
            observe = svc.pruner.observe_query
            monkeypatch.setattr(
                svc.pruner, "observe_query",
                lambda: (observed.append(1), observe())[1],
            )
            outcomes = force_waves(svc).query_batch(pairs)
            assert [o.via for o in outcomes] == ["engine"] * 3
            assert all(o.answer and o.confident for o in outcomes)
            counters = svc.stats()["counters"]
            assert counters["batch_wave_failures"] == 1
            assert counters["batch_scalar_queries"] == 3
            assert counters["cache_misses"] == 3
            assert counters["queries"] == 3
            assert len(observed) == 3


# ----------------------------------------------------------------------
# RWLock
# ----------------------------------------------------------------------
class TestRWLock:
    def test_writer_excludes_readers(self):
        lock = RWLock()
        log = []
        lock.acquire_write()

        def reader():
            lock.acquire_read()
            log.append("read")
            lock.release_read()

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=0.05)
        assert log == []  # reader blocked behind the writer
        lock.release_write()
        thread.join(timeout=2.0)
        assert log == ["read"]

    def test_readers_share(self):
        lock = RWLock()
        lock.acquire_read()
        done = threading.Event()

        def reader():
            lock.acquire_read()
            done.set()
            lock.release_read()

        threading.Thread(target=reader).start()
        assert done.wait(timeout=2.0)
        lock.release_read()


# ----------------------------------------------------------------------
# The concurrent stress test: confident answers vs a per-version oracle
# ----------------------------------------------------------------------
class TestConcurrentStress:
    NUM_QUERY_THREADS = 4
    QUERIES_PER_THREAD = 80
    NUM_UPDATES = 60

    def test_confident_answers_match_per_version_oracle(self, monkeypatch):
        monkeypatch.setattr(fastpath, "REBUILD_COOLDOWN", 8)
        base = random_graph(40, 100, seed=11)
        initial = base.copy()
        service = ReachabilityService(base, num_supportive=3, seed=1)

        update_rng = random.Random(21)
        update_log = []  # (version_after, kind, u, v) in version order
        outcomes = []
        outcomes_lock = threading.Lock()
        errors = []

        def updater():
            try:
                for _ in range(self.NUM_UPDATES):
                    if update_rng.random() < 0.6:
                        u, v = update_rng.randrange(45), update_rng.randrange(45)
                        if u == v:
                            continue
                        effect = service.add_edge(u, v)
                        kind = INSERT
                    else:
                        edges = list(service.graph.edges())
                        if not edges:
                            continue
                        u, v = edges[update_rng.randrange(len(edges))]
                        effect = service.remove_edge(u, v)
                        kind = "delete"
                    if effect.changed:
                        update_log.append((effect.version, kind, u, v))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def querier(seed):
            rng = random.Random(seed)
            try:
                # Caller-owned threads: odd seeds ask point queries, even
                # seeds the same number of pairs in batches of eight.
                width = 1 if seed % 2 else 8
                for _ in range(self.QUERIES_PER_THREAD // width):
                    pairs = [
                        (rng.randrange(45), rng.randrange(45))
                        for _ in range(width)
                    ]
                    if width == 1:
                        answered = [service.query(*pairs[0])]
                    else:
                        answered = service.query_batch(pairs)
                    with outcomes_lock:
                        outcomes.extend(answered)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=updater)] + [
            threading.Thread(target=querier, args=(100 + i,))
            for i in range(self.NUM_QUERY_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        service.close()
        assert not errors, errors

        # Replay each answered version's snapshot and check the oracle.
        # The write lock serializes updates, so every outcome version is
        # either the initial version or some update's resulting version.
        shadow = initial.copy()
        log = sorted(update_log)
        mismatches = []
        applied = 0
        for outcome in sorted(outcomes, key=lambda o: o.version):
            while applied < len(log) and log[applied][0] <= outcome.version:
                _, kind, u, v = log[applied]
                if kind == INSERT:
                    shadow.add_edge(u, v)
                else:
                    shadow.remove_edge(u, v)
                applied += 1
            if not outcome.confident:
                continue
            expected = is_reachable_bfs(shadow, outcome.source, outcome.target)
            if outcome.answer != expected:
                mismatches.append((outcome, expected))
        assert not mismatches, mismatches[:5]
        assert len(outcomes) == self.NUM_QUERY_THREADS * self.QUERIES_PER_THREAD


# ----------------------------------------------------------------------
# Writers queue behind readers
# ----------------------------------------------------------------------
class TestWriteTimeout:
    def test_acquire_write_without_timeout_still_blocks(self):
        lock = RWLock()
        lock.acquire_read()
        acquired = threading.Event()

        def writer():
            lock.acquire_write()
            acquired.set()
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        assert not acquired.wait(0.05)
        lock.release_read()
        assert acquired.wait(5.0)
        thread.join()

    def test_update_wait_measures_the_queue_behind_readers(self):
        with ReachabilityService(
            DynamicDiGraph(edges=[(0, 1)])
        ) as service:
            service._lock.acquire_read()  # a reader walk in progress
            writer = threading.Thread(target=service.add_edge, args=(1, 2))
            writer.start()
            time.sleep(0.05)
            assert not service.graph.has_edge(1, 2)  # still queued
            service._lock.release_read()
            writer.join(5.0)
            assert service.graph.has_edge(1, 2)
            latency = service.stats()["latency"]
            assert latency["update_wait"]["count"] == 1
            assert latency["update_wait"]["mean_us"] >= 40_000
            assert latency["update"]["mean_us"] >= latency["update_wait"]["mean_us"]


# ----------------------------------------------------------------------
# The cache's confident gate (regression: degraded guesses must not
# masquerade as exact answers)
# ----------------------------------------------------------------------
class TestCacheConfidentGate:
    def test_unconfident_put_is_rejected(self):
        cache = VersionedQueryCache(8)
        cache.put(1, 2, True, version=5, confident=False)
        assert cache.peek(1, 2) is None
        assert cache.unconfident_rejections == 1
        cache.put(1, 2, True, version=5, confident=True)
        assert cache.peek(1, 2) == (True, 5)

    def test_degraded_guess_never_reaches_the_cache(self, monkeypatch):
        # A long path with a tiny degraded budget: the bounded search
        # cannot finish, so its best-effort False must not be cached.
        path = DynamicDiGraph(edges=[(i, i + 1) for i in range(199)])
        monkeypatch.setattr(engine, "DEGRADE_BUDGET", 10)
        with ReachabilityService(
            path,
            num_supportive=0,
            use_labels=False,  # labels would answer exactly, no degrade
            deadline_s=0.0,  # expired on arrival: every search degrades
        ) as service:
            out = service.query(0, 199)
            assert out.via == "degraded"
            assert out.confident is False
            assert service.cache.peek(0, 199) is None
            # An exact degraded proof (short hop) is cached.
            out2 = service.query(0, 1)
            assert out2.confident is True
            assert service.cache.peek(0, 1) is not None


# ----------------------------------------------------------------------
# Mid-churn substrate fallback: push kernels racing updates
# ----------------------------------------------------------------------
class TestMidChurnFallback:
    def test_unfrozen_versions_serve_on_dict_substrate(self, monkeypatch):
        """Churn faster than the freeze threshold: every query lands on a
        version whose CSR snapshot never exists, so the engine must serve
        from the dict substrate (push kernels silently disengage) and
        every confident answer must match a per-version BFS oracle."""
        rng = random.Random(31)
        graph = random_graph(60, 150, seed=31)
        # Never freeze: permanent churn.
        monkeypatch.setattr(engine, "CSR_FREEZE_THRESHOLD", 10**9)
        service = ReachabilityService(
            graph,
            num_supportive=0,
            cache_capacity=16,
        )
        shadow = {service.graph.version: frozenset(service.graph.edges())}
        outcomes = []
        callers = ThreadPoolExecutor(max_workers=4)  # the test's threads
        for round_no in range(25):
            pairs = [(rng.randrange(60), rng.randrange(60)) for _ in range(8)]
            outcomes.extend(callers.map(lambda p: service.query(*p), pairs))
            u, v = rng.randrange(60), rng.randrange(60)
            if u != v:
                if service.graph.has_edge(u, v):
                    service.remove_edge(u, v)
                else:
                    service.add_edge(u, v)
                shadow[service.graph.version] = frozenset(
                    service.graph.edges()
                )
        callers.shutdown()
        counters = service.stats()["counters"]
        service.close()
        # No version ever froze, so no query ran the array kernels.
        assert counters.get("push_kernel_queries", 0) == 0
        assert counters.get("csr_freezes", 0) == 0
        checked = 0
        for outcome in outcomes:
            if not outcome.confident or outcome.version not in shadow:
                continue
            checked += 1
            oracle_graph = DynamicDiGraph(
                vertices=range(60), edges=sorted(shadow[outcome.version])
            )
            expected = is_reachable_bfs(
                oracle_graph, outcome.source, outcome.target
            )
            assert outcome.answer == expected, (
                f"{outcome.source}->{outcome.target} at v{outcome.version}"
            )
        assert checked > 100  # the oracle actually exercised the answers
