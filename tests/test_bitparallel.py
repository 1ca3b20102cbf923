"""Bit-parallel batched query execution (`repro.graph.bitsearch` +
`repro.service.batcher` + the service `query_batch` strategies).

The load-bearing property: for any batch, on any graph, mid-churn or
not, bit-parallel verdicts are bitwise-equal to the BFS oracle and to
the scalar `query_batch` path. The fallback tests prove a walk with no
snapshot to sweep degrades to scalar cleanly.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.budget import Budget, BudgetExceeded
from repro.datasets.sbm import two_block_sbm
from repro.datasets.scale_free import (
    erdos_renyi_graph,
    preferential_attachment_graph,
)
from repro.graph import kernels
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.service import ReachabilityService
from repro.service.batcher import BatchCostModel, pack_waves, plan_batch
from repro.service.faults import FaultPlan, FaultSpec
from tests.conftest import force_waves

pytestmark = pytest.mark.bitparallel

def _random_pairs(graph, count, rng, include_edge_cases=True):
    vs = sorted(graph.vertices())
    pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(count)]
    if include_edge_cases and count >= 4:
        pairs[0] = (vs[0], vs[0])  # identity
        pairs[1] = pairs[2]  # guaranteed duplicate
    return pairs


def _graph_family(name, seed):
    if name == "pa":
        return preferential_attachment_graph(300, 3, seed=seed, reciprocal=0.15)
    if name == "sbm":
        return two_block_sbm(120, 4.0, seed=seed)
    return erdos_renyi_graph(250, 2.0, seed=seed)


# ----------------------------------------------------------------------
# The kernel itself
# ----------------------------------------------------------------------
class TestBitKernel:
    @pytest.mark.parametrize("family", ["pa", "sbm", "er"])
    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 1000])
    def test_verdicts_match_bfs_oracle(self, family, batch):
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = _graph_family(family, seed=batch)
        csr = graph.csr()
        rng = random.Random(batch * 7 + 1)
        pairs = _random_pairs(graph, batch, rng)
        answers, stats = csr_bit_bibfs(csr, pairs)
        assert len(answers) == batch
        assert stats.lanes == batch
        assert stats.words == (batch + 63) // 64
        for (s, t), answer in zip(pairs, answers):
            assert answer == is_reachable_bfs(graph, s, t), (s, t)

    def test_lead_hint_does_not_change_verdicts(self):
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = _graph_family("pa", seed=3)
        csr = graph.csr()
        pairs = _random_pairs(graph, 100, random.Random(5))
        fwd, _ = csr_bit_bibfs(csr, pairs, lead="forward")
        rev, _ = csr_bit_bibfs(csr, pairs, lead="reverse")
        assert fwd == rev

    def test_empty_batch(self):
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = DynamicDiGraph(edges=[(0, 1)])
        answers, stats = csr_bit_bibfs(graph.csr(), [])
        assert answers == []
        assert stats.words == 0 and stats.layers == 0

    def test_resolved_groups_stop_paying(self):
        """A word-group with no lane left pending drops out of the sweep:
        64 identity lanes plus one 40-hop lane gather exactly the slow
        lane's 40 edges."""
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(40)])
        csr = graph.csr()
        pairs = [(0, 0)] * 64 + [(0, 40)]  # word 0 resolves at seed time
        answers, stats = csr_bit_bibfs(csr, pairs)
        assert all(answers)
        assert stats.words == 2 and stats.sweeps == 1
        assert stats.edge_accesses == 40

    def test_budget_exceeded_raises_at_layer_boundary(self):
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = _graph_family("pa", seed=9)
        csr = graph.csr()
        pairs = _random_pairs(graph, 64, random.Random(2))
        with pytest.raises(BudgetExceeded):
            csr_bit_bibfs(csr, pairs, budget=Budget(edge_ceiling=1))

    def test_exhaustion_proves_negatives(self):
        """A source whose closure lacks the target resolves False once its
        frontier stops carrying the lane (no meet required)."""
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = DynamicDiGraph(edges=[(0, 1), (1, 2), (3, 4), (4, 5)])
        csr = graph.csr()
        answers, _ = csr_bit_bibfs(csr, [(0, 5), (3, 2), (0, 2), (3, 5)])
        assert answers == [False, False, True, True]


# ----------------------------------------------------------------------
# One loop at every width: split rule, scratch hygiene, concurrency
# ----------------------------------------------------------------------
def _oracle(graph, pairs):
    return [is_reachable_bfs(graph, s, t) for s, t in pairs]


def _scratch_is_clean():
    from repro.graph import bitsearch

    scratch = bitsearch._process_scratch()
    return not scratch.label_f.any() and not scratch.label_r.any()


def _sweep_in_child(edges, pairs, expected):
    """Child-process body: one sweep, exit status 0 iff oracle-exact."""
    from repro.graph.bitsearch import csr_bit_bibfs

    answers, _ = csr_bit_bibfs(DynamicDiGraph(edges=edges).csr(), pairs)
    os._exit(0 if answers == expected else 1)


@st.composite
def _digraph_and_pairs(draw):
    n = draw(st.integers(2, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    lanes = draw(st.sampled_from([1, 63, 64, 65, 200, 1000]))
    # A short distinct list cycled out to ``lanes`` pairs: duplicates,
    # ``s == t`` and unreachable pairs all occur, and the oracle stays cheap.
    distinct = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=30))
    offset = draw(st.integers(0, len(distinct) - 1))
    pairs = [distinct[(offset + i * 7) % len(distinct)] for i in range(lanes)]
    if draw(st.booleans()):
        pairs.sort()  # word-groups that differ: some run dry before others
    return n, edges, pairs


class TestFrameWideSweep:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=_digraph_and_pairs())
    @pytest.mark.parametrize(
        "span", [None, 2], ids=["one-sweep", "two-groups-per-sweep"]
    )
    @pytest.mark.parametrize(
        "heavy",
        [0, 1, sys.maxsize],
        ids=["split-at-once", "split-after-a-layer", "never-split"],
    )
    def test_any_width_any_split_point_matches_the_oracle(
        self, monkeypatch, heavy, span, case
    ):
        """Splitting at once (0), after any real layer (1 edge per live
        word-group) and never all agree with BFS, for both leads, at
        every lane count — whether the frame is one sweep or runs two
        word-groups per sweep."""
        from repro.graph import bitsearch

        monkeypatch.setattr(bitsearch, "HEAVY_GROUP_EDGES", heavy)
        n, edges, pairs = case
        if span is not None:
            monkeypatch.setattr(bitsearch, "_SCRATCH_ROWS", span * n)
        graph = DynamicDiGraph(vertices=range(n), edges=edges)
        expected = _oracle(graph, pairs)
        csr = graph.csr()
        words = bitsearch.words_for(len(pairs))
        for lead in ("forward", "reverse"):
            answers, stats = bitsearch.csr_bit_bibfs(csr, pairs, lead=lead)
            assert answers == expected, lead
            assert stats.lanes == len(pairs)
            assert stats.sweeps == (1 if span is None else -(-words // span))
        assert _scratch_is_clean()

    def test_batches_wider_than_the_scratch_run_as_successive_sweeps(
        self, monkeypatch
    ):
        from repro.graph import bitsearch

        graph = _graph_family("pa", seed=4)
        pairs = _random_pairs(graph, 1000, random.Random(8))
        # Room for two word-groups of this graph per scratch fill.
        monkeypatch.setattr(bitsearch, "_SCRATCH_ROWS", 2 * graph.num_vertices)
        answers, stats = bitsearch.csr_bit_bibfs(graph.csr(), pairs)
        assert answers == _oracle(graph, pairs)
        assert stats.words == 16 and stats.sweeps == 8
        assert bitsearch.sweeps_for(1000, graph.num_vertices) == 8

    def test_the_split_point_scales_with_live_word_groups(self, monkeypatch):
        """Heavy is per live word-group: 16 groups of 64 lanes, each lane
        one frontier row of out-degree 1 on a path, gather 64 edges a
        group a layer (1024 a layer) — wide at a threshold of 64, split
        at once at 63."""
        from repro.graph import bitsearch

        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(1100)])
        csr = graph.csr()
        pairs = [(s, s + 10) for s in range(1024)]

        def layers(heavy):
            monkeypatch.setattr(bitsearch, "HEAVY_GROUP_EDGES", heavy)
            answers, stats = bitsearch.csr_bit_bibfs(csr, pairs)
            assert all(answers) and stats.sweeps == 1
            return stats.layers

        wide = layers(sys.maxsize)
        assert layers(64) == wide
        assert layers(63) > 8 * wide  # each group ran its own layers

    def test_label_blocks_are_sized_by_the_call(self, monkeypatch):
        """A fresh scratch grows to the call's ``words x n`` rows — no
        floor — and a call under the ceiling is one sweep, as is a
        1024-pair frame on a 50k-vertex graph."""
        from repro.graph import bitsearch

        monkeypatch.setattr(bitsearch, "_scratch", None)
        graph = _graph_family("pa", seed=4)
        n = graph.num_vertices
        pairs = _random_pairs(graph, 1000, random.Random(8))
        answers, stats = bitsearch.csr_bit_bibfs(graph.csr(), pairs)
        assert answers == _oracle(graph, pairs)
        scratch = bitsearch._process_scratch()
        assert len(scratch.label_f) == len(scratch.label_r) == stats.words * n
        assert stats.words == 16 and stats.sweeps == 1
        assert _scratch_is_clean()
        assert bitsearch.sweeps_for(1024, 50_000) == 1
        assert bitsearch.sweeps_for(21 * 64, 50_000) == 2

    def test_interrupted_sweep_keeps_decided_lanes_and_cleans_up(self):
        """A budget that trips mid-sweep hands out the lanes already
        decided (all oracle-exact), leaves the rest ``None``, and the
        next sweep on the same snapshot finds a clean scratch."""
        from repro.graph.bitsearch import csr_bit_bibfs

        chain = [(i, i + 1) for i in range(60)]
        graph = DynamicDiGraph(edges=chain + [(100, 101), (200, 201)])
        csr = graph.csr()
        pairs = [(100, 101), (101, 100), (200, 100), (0, 60), (60, 0), (7, 7)]
        expected = _oracle(graph, pairs)
        with pytest.raises(BudgetExceeded) as caught:
            csr_bit_bibfs(csr, pairs, budget=Budget(edge_ceiling=8))
        decided = caught.value.decided
        assert len(decided) == len(pairs)
        kept = [i for i, verdict in enumerate(decided) if verdict is not None]
        assert kept and len(kept) < len(pairs)
        assert decided[3] is None  # the 60-hop lane cannot fit 8 edges
        for i in kept:
            assert decided[i] == expected[i], pairs[i]
        assert _scratch_is_clean()
        assert csr_bit_bibfs(csr, pairs)[0] == expected

    @pytest.mark.parametrize("failing_call", [0, 1, 3, 6])
    def test_a_fault_on_any_exit_path_leaves_the_scratch_clean(
        self, monkeypatch, failing_call
    ):
        """Call 0 is the entry fault point (``_maybe_fault``); later ones
        fail a merge mid-sweep — after seeding, inside the layers."""
        from repro.graph import bitsearch

        graph = _graph_family("er", seed=11)
        csr = graph.csr()
        pairs = _random_pairs(graph, 200, random.Random(13))
        real_merge, calls = bitsearch._merge, [0]

        def flaky_merge(keys, words):
            calls[0] += 1
            if calls[0] == failing_call:
                raise RuntimeError("injected mid-sweep fault")
            return real_merge(keys, words)

        def hook(name):
            if failing_call == 0 and name == "csr_bit_bibfs":
                raise RuntimeError("injected entry fault")

        monkeypatch.setattr(bitsearch, "_merge", flaky_merge)
        previous = kernels.set_fault_hook(hook)
        try:
            with pytest.raises(RuntimeError, match="injected"):
                bitsearch.csr_bit_bibfs(csr, pairs)
        finally:
            kernels.set_fault_hook(previous)
        assert _scratch_is_clean()
        assert not bitsearch._process_scratch().lock.locked()
        monkeypatch.setattr(bitsearch, "_merge", real_merge)
        assert bitsearch.csr_bit_bibfs(csr, pairs)[0] == _oracle(graph, pairs)

    def test_concurrent_sweeps_of_one_snapshot_are_both_exact(self):
        """More sweeping threads than cores over the one scratch pair: a
        lost label update or a half-wiped block would flip a verdict."""
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = _graph_family("pa", seed=5)
        csr = graph.csr()
        rng = random.Random(19)
        batches = [_random_pairs(graph, 300, rng) for _ in range(6)]
        expected = [_oracle(graph, pairs) for pairs in batches]
        wrong = []

        def sweep(k):
            for _ in range(8):
                if csr_bit_bibfs(csr, batches[k])[0] != expected[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert _scratch_is_clean()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_child_process_gets_its_own_scratch(self, method):
        """The parent holds the scratch lock (a sweep in flight on another
        thread, as far as a fork can tell) with dirt in the blocks: the
        child must neither wait on that lock nor read those rows."""
        from repro.graph import bitsearch

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        edges = [(0, 1), (1, 2), (3, 4)]
        pairs = [(0, 2), (2, 0), (3, 4), (0, 4)] * 20
        expected = [True, False, True, False] * 20
        scratch = bitsearch._process_scratch()
        child = multiprocessing.get_context(method).Process(
            target=_sweep_in_child, args=(edges, pairs, expected)
        )
        with scratch.lock:
            scratch.label_f[:8] = scratch.label_r[:8] = 2**64 - 1
            try:
                child.start()
                child.join(timeout=60)
            finally:
                scratch.label_f[:8] = scratch.label_r[:8] = 0
        assert not child.is_alive()
        assert child.exitcode == 0


# ----------------------------------------------------------------------
# The planner and cost model
# ----------------------------------------------------------------------
class TestBatchPlanner:
    def test_dedup_and_trivial_resolution(self):
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        plan = plan_batch(
            [(0, 2), (0, 2), (1, 1), (0, 99), (2, 0)], graph=graph
        )
        assert plan.dedup_saved == 1
        assert plan.resolved[(1, 1)] == (True, "fastpath", "identity")
        assert plan.resolved[(0, 99)] == (False, "fastpath", "missing-endpoint")
        assert set(plan.pending) == {(0, 2), (2, 0)}

    def test_prefilter_callables_drain_pairs(self):
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 3)])
        plan = plan_batch(
            [(0, 2), (1, 3), (0, 3)],
            graph=graph,
            check=lambda s, t: (True, "rule") if (s, t) == (0, 2) else None,
            cache_get=lambda s, t: False if (s, t) == (1, 3) else None,
        )
        assert plan.resolved[(0, 2)] == (True, "fastpath", "rule")
        assert plan.resolved[(1, 3)] == (False, "cache", "")
        assert plan.pending == [(0, 3)]
        assert plan.prefilter_hits == 2

    def test_waves_slice_sorted_pending(self):
        graph = DynamicDiGraph(
            edges=[(i, i + 1) for i in range(10)] + [(9, 0)]
        )
        pairs = [(i, (i + 3) % 10) for i in range(10)]
        plan = plan_batch(pairs, graph=graph, max_wave_lanes=4)
        assert [len(w.pairs) for w in plan.waves] == [4, 4, 2]
        assert sum((w.pairs for w in plan.waves), []) == sorted(set(pairs))
        assert all(w.lead in ("forward", "reverse") for w in plan.waves)
        assert plan.waves[0].words == 1

    def test_unpacked_plan_leaves_packing_to_the_wave_rung(self):
        graph = DynamicDiGraph(
            edges=[(i, i + 1) for i in range(10)] + [(9, 0)]
        )
        pairs = [(i, (i + 3) % 10) for i in reversed(range(10))]
        plan = plan_batch(pairs, graph=graph, max_wave_lanes=4, pack=False)
        assert plan.pending == pairs  # arrival order, not sorted
        assert plan.waves == []
        pending, waves = pack_waves(plan.pending, graph=graph, max_wave_lanes=4)
        packed = plan_batch(pairs, graph=graph, max_wave_lanes=4)
        assert (pending, waves) == (packed.pending, packed.waves)

    @pytest.mark.parametrize("stride", [1, 7], ids=["ids-are-rows", "sparse-ids"])
    def test_packing_from_a_snapshot_is_the_same_packing(self, stride):
        """``pack_waves(csr=...)``: one lexsort and the CSR's offsets in
        place of ``sorted`` and 2N degree calls — same order, same waves,
        same leads — and the kernel answers a wave's id array as it
        answers its pair list."""
        from repro.graph.bitsearch import csr_bit_bibfs

        base = _graph_family("pa", 5)
        graph = DynamicDiGraph(
            vertices=[stride * v for v in base.vertices()],
            edges=[(stride * u, stride * v) for u, v in base.edges()],
        )
        rng = random.Random(9)
        pairs = list(dict.fromkeys(_random_pairs(graph, 200, rng)))
        csr = graph.csr()
        for lanes in (64, 7, len(pairs)):
            plain = pack_waves(pairs, graph=graph, max_wave_lanes=lanes)
            packed = pack_waves(pairs, graph=graph, max_wave_lanes=lanes, csr=csr)
            assert packed == plain
            for wave in packed[1]:
                assert list(map(tuple, wave.ids.tolist())) == wave.pairs
        wave = packed[1][0]
        by_ids, _ = csr_bit_bibfs(csr, wave.ids, lead=wave.lead)
        by_pairs, _ = csr_bit_bibfs(csr, wave.pairs, lead=wave.lead)
        assert by_ids == by_pairs
        assert pack_waves([], graph=graph, csr=csr) == ([], [])

    def test_cost_model_cutover_is_monotone(self):
        model = BatchCostModel()
        # Tiny batches on big graphs: scalar wins; big batches: sweep wins.
        assert not model.prefer_bitparallel(1, 50_000, 650_000, 1e-3)
        assert model.prefer_bitparallel(512, 50_000, 650_000, 1e-3)
        # A faster engine raises the bar for the sweep.
        assert not model.prefer_bitparallel(64, 50_000, 650_000, 1e-6)

    def test_cost_model_decisions_on_the_benchmark_batches(self):
        """The per-layer / per-word-edge account decides the two batches
        the per-wave account was checked on the way it did: a
        ``batch_search`` frame (1024 survivors on the sparse 50k graph)
        sweeps, at any plausible engine latency; a 3-pair batch stays
        scalar until the engine is observed to cost a millisecond."""
        model = BatchCostModel()
        n, m = 50_000, 153_035
        for engine_mean_s in (0.0, 1e-4, 1e-3, 1e-2):
            assert model.prefer_bitparallel(1024, n, m, engine_mean_s)
        assert not model.prefer_bitparallel(3, n, m, 0.0)
        assert not model.prefer_bitparallel(3, n, m, 5e-4)
        assert model.prefer_bitparallel(3, n, m, 1e-3)
        # One frame is one sweep of this graph; dispatch is charged for
        # its layers once, bandwidth for its sixteen word-groups.
        assert model.sweep_seconds(n, m, 1024) == pytest.approx(
            18 * 1e-4 + 16 * (n + m) * 4.5e-9
        )


# ----------------------------------------------------------------------
# Service integration (A/B, churn, fallback)
# ----------------------------------------------------------------------
class TestServiceBatchStrategies:
    def test_invalid_strategy_rejected(self):
        """There is no caller-chosen strategy: the keyword itself is
        rejected, and the cutover is the rung's own decision."""
        with ReachabilityService(DynamicDiGraph(edges=[(0, 1)])) as svc:
            with pytest.raises(TypeError):
                svc.query_batch([(0, 1)], strategy="simd")
        assert list(inspect.signature(svc.query_batch).parameters) == [
            "queries", "deadline_s"
        ]

    @pytest.mark.parametrize("family", ["pa", "sbm"])
    def test_bitparallel_equals_scalar_and_oracle(self, family):
        graph = _graph_family(family, seed=21)
        rng = random.Random(17)
        pairs = _random_pairs(graph, 400, rng)
        # num_supportive=0 weakens the fast-path pruner and use_labels=False
        # drops the label prefilter so a healthy share of pairs survives to
        # actually ride a bit wave (with either tier on, these families are
        # fully prefiltered and no kernel would run).
        with ReachabilityService(
            graph.copy(), seed=0, num_supportive=0, use_labels=False
        ) as bit_svc:
            bit = force_waves(bit_svc).query_batch(pairs)
            counters = bit_svc.stats()["counters"]
            assert counters["bit_waves"] >= 1
            assert counters["bit_lanes"] == counters["bit_resolved"]
            assert bit_svc.stats()["derived"]["word_occupancy"] > 0.0
        with ReachabilityService(graph.copy(), seed=0) as scalar_svc:
            scalar = [scalar_svc.query(s, t) for s, t in pairs]
        for (s, t), b, c in zip(pairs, bit, scalar):
            expected = is_reachable_bfs(graph, s, t)
            assert b.answer == expected, (s, t, b.via)
            assert c.answer == expected, (s, t, c.via)
            assert b.confident and c.confident

    def test_auto_strategy_matches_oracle_and_counts_decision(self):
        graph = _graph_family("pa", seed=8)
        pairs = _random_pairs(graph, 300, random.Random(4))
        # use_labels=False: the label prefilter would resolve every pair,
        # leaving no pending batch for the auto cutover to decide on.
        with ReachabilityService(graph.copy(), seed=0, use_labels=False) as svc:
            outcomes = svc.query_batch(pairs)
            counters = svc.stats()["counters"]
            assert (
                counters.get("batch_auto_bitparallel", 0)
                + counters.get("batch_auto_scalar", 0)
                >= 1
            )
        for (s, t), o in zip(pairs, outcomes):
            assert o.answer == is_reachable_bfs(graph, s, t)

    def test_mid_churn_batches_stay_exact(self):
        """Batches interleaved with updates answer on the version they
        observed; each round is checked against an oracle on that graph."""
        graph = _graph_family("er", seed=6)
        rng = random.Random(33)
        vs = sorted(graph.vertices())
        # Index tiers weakened so pairs survive to ride a wave each round.
        with ReachabilityService(
            graph, seed=0, num_supportive=0, use_labels=False
        ) as svc:
            force_waves(svc)
            for round_no in range(4):
                pairs = _random_pairs(svc.graph, 150, rng)
                outcomes = svc.query_batch(pairs)
                for (s, t), o in zip(pairs, outcomes):
                    assert o.answer == is_reachable_bfs(svc.graph, s, t)
                    assert o.version == svc.graph.version
                for _ in range(5):
                    u, v = rng.choice(vs), rng.choice(vs)
                    if u != v and not svc.graph.has_edge(u, v):
                        svc.add_edge(u, v)
                    elif u != v:
                        svc.remove_edge(u, v)
            assert svc.stats()["counters"]["bit_waves"] > 0

    def test_cache_reuse_across_batches(self):
        graph = _graph_family("pa", seed=12)
        pairs = _random_pairs(graph, 128, random.Random(2))
        # use_labels=False: label verdicts are recomputed per batch, never
        # cached, so the cache-reuse contract is about kernel answers.
        with ReachabilityService(graph, seed=0, use_labels=False) as svc:
            force_waves(svc).query_batch(pairs)
            first = svc.stats()["counters"]
            svc.query_batch(pairs)
            second = svc.stats()["counters"]
            # The second identical batch drains via the prefilter (cache).
            assert second["bit_waves"] == first["bit_waves"] > 0
            assert second["cache_hits"] > first.get("cache_hits", 0)

    def test_kernelless_service_falls_back_to_scalar(self):
        """Without a snapshot (every freeze fails) a batch the cutover
        would have swept answers through the engine rung, counted as a
        fallback when pairs actually reached the wave rung."""
        graph = _graph_family("sbm", seed=14)
        pairs = _random_pairs(graph, 100, random.Random(3))
        no_freeze = FaultPlan("no-freeze", (FaultSpec("freeze"),))
        with ReachabilityService(graph, seed=0, fault_plan=no_freeze) as svc:
            outcomes = force_waves(svc).query_batch(pairs)
            counters = svc.stats()["counters"]
            reached = counters.get("batch_scalar_queries", 0) > 0
            assert counters.get("batch_scalar_fallback", 0) == int(reached)
            assert counters.get("bit_waves", 0) == 0
            for (s, t), o in zip(pairs, outcomes):
                assert o.via != "bitbatch"
                assert o.answer == is_reachable_bfs(graph, s, t)

    def test_wave_failure_feeds_breaker_and_reroutes(self, monkeypatch):
        """A kernel fault mid-batch is contained: the breaker records it
        and the wave's pairs answer through the scalar path."""
        import repro.service.engine as engine_mod

        graph = _graph_family("pa", seed=18)
        pairs = _random_pairs(graph, 200, random.Random(6))

        def exploding(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(engine_mod, "csr_bit_bibfs", exploding)
        with ReachabilityService(graph.copy(), seed=0, use_labels=False) as svc:
            outcomes = force_waves(svc).query_batch(pairs)
            counters = svc.stats()["counters"]
            assert counters["batch_wave_failures"] >= 1
            assert counters["batch_scalar_queries"] >= 1
            assert counters.get("bit_resolved", 0) == 0
        for (s, t), o in zip(pairs, outcomes):
            assert o.via != "bitbatch"
            assert o.answer == is_reachable_bfs(graph, s, t)


    def test_budget_expiring_mid_sweep_keeps_the_decided_lanes(self):
        """The edge ceiling trips after the first lanes resolved: those
        stay ``bitbatch`` verdicts (oracle-exact); only the undecided
        lanes drop to the engine rung."""
        graph = _graph_family("pa", seed=21)
        pairs = sorted(set(_random_pairs(graph, 400, random.Random(17))))
        with ReachabilityService(
            graph.copy(), seed=0, num_supportive=0, use_labels=False,
            engine_edge_budget=800,
        ) as svc:
            outcomes = force_waves(svc).query_batch(pairs)
            counters = svc.stats()["counters"]
        kept = [o for o in outcomes if o.via == "bitbatch"]
        searched = [o for o in outcomes if o.via != "fastpath"]
        assert 0 < len(kept) < len(searched)
        assert counters["bit_resolved"] == len(kept)
        assert counters.get("bit_waves", 0) == 0  # the call never finished
        assert counters["batch_scalar_queries"] == len(searched) - len(kept)
        assert all("interrupted=edge-budget" in o.detail for o in kept)
        for (s, t), o in zip(pairs, outcomes):
            if o.confident:
                assert o.answer == is_reachable_bfs(graph, s, t), (s, t, o.via)
        assert all(o.confident for o in kept)
