"""Bit-parallel batched query execution (`repro.graph.bitsearch` +
`repro.service.batcher` + the service `query_batch` strategies).

The load-bearing property: for any batch, on any graph, mid-churn or
not, bit-parallel verdicts are bitwise-equal to the BFS oracle and to
the scalar `query_batch` path. The fallback tests run without numpy too,
proving a kernel-less deployment degrades to scalar cleanly.
"""

from __future__ import annotations

import random

import pytest

from repro.core.budget import Budget, BudgetExceeded
from repro.datasets.sbm import two_block_sbm
from repro.datasets.scale_free import (
    erdos_renyi_graph,
    preferential_attachment_graph,
)
from repro.graph import HAVE_NUMPY, kernels
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.service import ReachabilityService
from repro.service.batcher import BatchCostModel, pack_waves, plan_batch

pytestmark = pytest.mark.bitparallel

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="bit-parallel kernels require numpy"
)


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
@needs_numpy
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

    def test_word_compaction_early_out(self):
        """Resolved words stop paying: a batch of instant identities plus
        one slow lane compacts down to the slow lane's word."""
        from repro.graph.bitsearch import csr_bit_bibfs

        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(40)])
        csr = graph.csr()
        pairs = [(0, 0)] * 64 + [(0, 40)]  # word 0 resolves at seed time
        answers, stats = csr_bit_bibfs(csr, pairs)
        assert all(answers)
        assert stats.compactions >= 1

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

    def test_cost_model_cutover_is_monotone(self):
        model = BatchCostModel()
        # Tiny batches on big graphs: scalar wins; big batches: sweep wins.
        assert not model.prefer_bitparallel(1, 50_000, 650_000, 1e-3)
        assert model.prefer_bitparallel(512, 50_000, 650_000, 1e-3)
        # A faster engine raises the bar for the sweep.
        assert not model.prefer_bitparallel(64, 50_000, 650_000, 1e-6)


# ----------------------------------------------------------------------
# Service integration (A/B, churn, fallback)
# ----------------------------------------------------------------------
class TestServiceBatchStrategies:
    def test_invalid_strategy_rejected(self):
        with ReachabilityService(DynamicDiGraph(edges=[(0, 1)])) as svc:
            with pytest.raises(ValueError):
                svc.query_batch([(0, 1)], strategy="simd")

    @needs_numpy
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
            bit = bit_svc.query_batch(pairs, strategy="bitparallel")
            counters = bit_svc.stats()["counters"]
            assert counters["bit_waves"] >= 1
            assert counters["bit_lanes"] == counters["bit_resolved"]
            assert bit_svc.stats()["derived"]["word_occupancy"] > 0.0
        with ReachabilityService(graph.copy(), seed=0) as scalar_svc:
            scalar = scalar_svc.query_batch(pairs, strategy="scalar")
        for (s, t), b, c in zip(pairs, bit, scalar):
            expected = is_reachable_bfs(graph, s, t)
            assert b.answer == expected, (s, t, b.via)
            assert c.answer == expected, (s, t, c.via)
            assert b.confident and c.confident

    @needs_numpy
    def test_auto_strategy_matches_oracle_and_counts_decision(self):
        graph = _graph_family("pa", seed=8)
        pairs = _random_pairs(graph, 300, random.Random(4))
        # use_labels=False: the label prefilter would resolve every pair,
        # leaving no pending batch for the auto cutover to decide on.
        with ReachabilityService(graph.copy(), seed=0, use_labels=False) as svc:
            outcomes = svc.query_batch(pairs, strategy="auto")
            counters = svc.stats()["counters"]
            assert (
                counters.get("batch_auto_bitparallel", 0)
                + counters.get("batch_auto_scalar", 0)
                >= 1
            )
        for (s, t), o in zip(pairs, outcomes):
            assert o.answer == is_reachable_bfs(graph, s, t)

    @needs_numpy
    def test_mid_churn_batches_stay_exact(self):
        """Batches interleaved with updates answer on the version they
        observed; each round is checked against an oracle on that graph."""
        graph = _graph_family("er", seed=6)
        rng = random.Random(33)
        vs = sorted(graph.vertices())
        with ReachabilityService(graph, seed=0) as svc:
            for round_no in range(4):
                pairs = _random_pairs(svc.graph, 150, rng)
                outcomes = svc.query_batch(pairs, strategy="bitparallel")
                for (s, t), o in zip(pairs, outcomes):
                    assert o.answer == is_reachable_bfs(svc.graph, s, t)
                    assert o.version == svc.graph.version
                for _ in range(5):
                    u, v = rng.choice(vs), rng.choice(vs)
                    if u != v and not svc.graph.has_edge(u, v):
                        svc.add_edge(u, v)
                    elif u != v:
                        svc.remove_edge(u, v)

    @needs_numpy
    def test_cache_reuse_across_batches(self):
        graph = _graph_family("pa", seed=12)
        pairs = _random_pairs(graph, 128, random.Random(2))
        # use_labels=False: label verdicts are recomputed per batch, never
        # cached, so the cache-reuse contract is about kernel answers.
        with ReachabilityService(graph, seed=0, use_labels=False) as svc:
            svc.query_batch(pairs, strategy="bitparallel")
            first = svc.stats()["counters"]
            svc.query_batch(pairs, strategy="bitparallel")
            second = svc.stats()["counters"]
            # The second identical batch drains via the prefilter (cache).
            assert second["bit_waves"] == first["bit_waves"]
            assert second["cache_hits"] > first.get("cache_hits", 0)

    def test_kernelless_service_falls_back_to_scalar(self):
        """Without kernels (numpy absent or disabled) every strategy
        answers through the scalar pipeline, counted as a fallback."""
        graph = _graph_family("sbm", seed=14)
        pairs = _random_pairs(graph, 100, random.Random(3))
        with ReachabilityService(graph, seed=0, use_kernels=False) as svc:
            outcomes = svc.query_batch(pairs, strategy="bitparallel")
            counters = svc.stats()["counters"]
            assert counters["batch_scalar_fallback"] == 1
            assert counters.get("bit_waves", 0) == 0
            for (s, t), o in zip(pairs, outcomes):
                assert o.via != "bitbatch"
                assert o.answer == is_reachable_bfs(graph, s, t)

    @needs_numpy
    def test_kernel_switch_disables_bit_path(self):
        graph = _graph_family("sbm", seed=15)
        previous = kernels.set_kernels_enabled(False)
        try:
            with ReachabilityService(graph, seed=0) as svc:
                outcomes = svc.query_batch([(0, 5), (5, 0)], strategy="auto")
                assert svc.stats()["counters"]["batch_scalar_fallback"] == 1
                assert all(o.via != "bitbatch" for o in outcomes)
        finally:
            kernels.set_kernels_enabled(previous)

    @needs_numpy
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
            outcomes = svc.query_batch(pairs, strategy="bitparallel")
            counters = svc.stats()["counters"]
            assert counters["batch_wave_failures"] >= 1
            assert counters["batch_scalar_queries"] >= 1
            assert counters.get("bit_resolved", 0) == 0
        for (s, t), o in zip(pairs, outcomes):
            assert o.via != "bitbatch"
            assert o.answer == is_reachable_bfs(graph, s, t)


# ----------------------------------------------------------------------
# Batched replay (driver + workload burst knob)
# ----------------------------------------------------------------------
class TestBatchedReplay:
    def test_burst_workload_and_batched_replay(self):
        from repro.service import replay_workload
        from repro.workloads.mixed import generate_mixed_workload

        graph = _graph_family("er", seed=25)
        ops = generate_mixed_workload(
            graph.copy(),
            300,
            query_ratio=0.9,
            batch_size=32,
            seed=5,
        )
        assert len(ops) == 300
        with ReachabilityService(graph.copy(), seed=0) as svc:
            result = replay_workload(
                svc, ops, batch_size=32, batch_strategy="auto"
            )
        assert result.num_queries == sum(1 for op in ops if op.is_query)
        assert len(result.outcomes) == result.num_queries
        with ReachabilityService(graph.copy(), seed=0) as svc:
            scalar = replay_workload(svc, ops)
        paired = zip(result.outcomes, scalar.outcomes)
        assert all(a.answer == b.answer for a, b in paired)
