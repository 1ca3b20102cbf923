"""A/B equivalence and fallback tests for the vectorized CSR kernels.

The dispatch layers (``core.bibfs``, ``baselines.bibfs``,
``community.sweep``, ``service.fastpath``) rely on one contract: every
kernel returns exactly the answer its dict twin returns on the same
snapshot. These tests pit three implementations against each other — the
BFS oracle, the dict path, and the kernel path — across graph families,
random query batches, a post-update re-freeze, and both push orders, then
exercise the version-keyed CSR cache and the serving engine's per-epoch
freeze.
"""

import random

import pytest

from repro.baselines.bibfs import bibfs_is_reachable
from repro.core.ifca import IFCA
from repro.core.params import ORDER_GREEDY, ORDER_LIFO, IFCAParams
from repro.core.stats import QueryStats
from repro.datasets.sbm import two_block_sbm
from repro.datasets.scale_free import preferential_attachment_graph
from repro.graph import kernels
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import bfs_reachable, reverse_bfs_reachable
from repro.workloads.queries import generate_queries

from tests.oracles import power_iteration_ppr

def _families():
    return [
        ("sbm", two_block_sbm(100, 6.0, seed=11)),
        ("scale_free", preferential_attachment_graph(400, 3, seed=11, reciprocal=0.2)),
    ]


class TestBiBFSEquivalence:
    def test_kernel_matches_dict_and_oracle(self):
        """100 random queries per family, three-way agreement."""
        for name, g in _families():
            queries = generate_queries(g, 100, seed=21)
            snapshot = g.csr()
            assert snapshot is not None
            used_kernel = 0
            for s, t in queries:
                oracle = t in bfs_reachable(g, s)
                dict_stats = QueryStats()
                dict_ans = bibfs_is_reachable(g, s, t, dict_stats, use_kernels=False)
                kern_stats = QueryStats()
                kern_ans = bibfs_is_reachable(g, s, t, kern_stats, use_kernels=True)
                assert dict_ans == oracle, (name, s, t)
                assert kern_ans == oracle, (name, s, t)
                assert not dict_stats.used_kernel
                used_kernel += kern_stats.used_kernel
            # Non-trivial queries (both endpoints present, s != t) must
            # actually have gone through the kernel.
            assert used_kernel > 0

    def test_post_update_refreeze(self):
        """Updates invalidate the snapshot; a re-freeze agrees again."""
        g = preferential_attachment_graph(300, 3, seed=5, reciprocal=0.2)
        g.csr()
        rng = random.Random(9)
        vertices = sorted(g.vertices())
        for _ in range(40):
            u, v = rng.sample(vertices, 2)
            if rng.random() < 0.3 and g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
        assert g.csr(build=False) is None  # stale view dropped
        assert g.csr() is not None  # rebuilt on demand
        for s, t in generate_queries(g, 50, seed=6):
            oracle = t in bfs_reachable(g, s)
            assert bibfs_is_reachable(g, s, t, use_kernels=False) == oracle
            assert bibfs_is_reachable(g, s, t, use_kernels=True) == oracle

    @pytest.mark.parametrize("push_order", [ORDER_LIFO, ORDER_GREEDY])
    def test_engine_handoff_equivalence(self, push_order):
        """Full IFCA (guided rounds, then Alg. 5 hand-off) with kernels
        on vs off returns the oracle answer under both push orders."""
        g = preferential_attachment_graph(300, 3, seed=17, reciprocal=0.2)
        g.csr()
        queries = generate_queries(g, 40, seed=3)
        engines = {
            flag: IFCA(
                g,
                params=IFCAParams(
                    force_switch_round=2,
                    push_order=push_order,
                    use_kernels=flag,
                ),
            )
            for flag in (False, True)
        }
        for s, t in queries:
            oracle = t in bfs_reachable(g, s)
            assert engines[False].is_reachable(s, t) == oracle
            assert engines[True].is_reachable(s, t) == oracle

    def test_empty_and_trivial_cases(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        g.add_vertex(7)  # isolated
        g.csr()
        assert bibfs_is_reachable(g, 0, 0, use_kernels=True)
        assert bibfs_is_reachable(g, 0, 2, use_kernels=True)
        assert not bibfs_is_reachable(g, 2, 0, use_kernels=True)
        assert not bibfs_is_reachable(g, 0, 7, use_kernels=True)
        assert not bibfs_is_reachable(g, 7, 0, use_kernels=True)
        assert not bibfs_is_reachable(g, 0, 99, use_kernels=True)


class TestReachableSetKernels:
    def test_closures_match_bfs(self):
        g = preferential_attachment_graph(200, 3, seed=8, reciprocal=0.3)
        snapshot = g.csr()
        rng = random.Random(2)
        probes = rng.sample(sorted(g.vertices()), 10)
        for v in probes:
            assert kernels.csr_reachable_set(snapshot, v, True) == bfs_reachable(g, v)
            assert kernels.csr_reachable_set(snapshot, v, False) == (
                reverse_bfs_reachable(g, v)
            )

    def test_multi_source_batch(self):
        g = two_block_sbm(50, 5.0, seed=4)
        snapshot = g.csr()
        starts = [0, 17, 60]
        sets = kernels.csr_multi_reachable_sets(snapshot, starts, forward=True)
        assert set(sets) == set(starts)
        for v in starts:
            assert sets[v] == bfs_reachable(g, v)

    def test_multi_source_empty_start_list(self):
        g = two_block_sbm(20, 3.0, seed=1)
        assert kernels.csr_multi_reachable_sets(g.csr(), []) == {}

    def test_multi_source_sink_closure_is_itself(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        snapshot = g.csr()
        sets = kernels.csr_multi_reachable_sets(snapshot, [2], forward=True)
        assert sets == {2: {2}}
        back = kernels.csr_multi_reachable_sets(snapshot, [0], forward=False)
        assert back == {0: {0}}

    def test_multi_source_duplicate_starts_collapse(self):
        g = two_block_sbm(30, 4.0, seed=7)
        snapshot = g.csr()
        sets = kernels.csr_multi_reachable_sets(
            snapshot, [3, 3, 11, 3], forward=True
        )
        assert set(sets) == {3, 11}
        assert sets[3] == bfs_reachable(g, 3)

    @pytest.mark.parametrize("forward", [True, False])
    def test_multi_source_equals_per_source(self, forward):
        g = preferential_attachment_graph(120, 3, seed=5)
        snapshot = g.csr()
        rng = random.Random(6)
        starts = rng.sample(sorted(g.vertices()), 8)
        sets = kernels.csr_multi_reachable_sets(snapshot, starts, forward)
        for v in starts:
            assert sets[v] == kernels.csr_reachable_set(snapshot, v, forward)


class TestSweepEquivalence:
    def test_kernel_sweep_matches_dict_sweep(self):
        from repro.community.sweep import sweep_cut

        for seed in range(5):
            g = two_block_sbm(40, 6.0, seed=seed)
            ppr = power_iteration_ppr(g, seed % g.num_vertices, alpha=0.1)
            sizes = (0, 5, 25)
            # No snapshot is frozen yet, so these cuts take the dict walk.
            assert g.csr(build=False) is None
            dict_cuts = [sweep_cut(g, ppr, max_size=size) for size in sizes]
            g.csr()
            for max_size, dict_cut in zip(sizes, dict_cuts):
                kern_cut = sweep_cut(g, ppr, max_size=max_size)
                assert kern_cut[0] == dict_cut[0], (seed, max_size)
                assert kern_cut[1] == pytest.approx(dict_cut[1]), (seed, max_size)


class TestCSRCacheAndFallback:
    def test_version_keyed_cache(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        first = g.csr()
        assert g.csr() is first  # same version -> same frozen object
        g.add_edge(2, 3)
        assert g.csr(build=False) is None
        second = g.csr()
        assert second is not first
        assert second.num_edges == 3
        g.remove_edge(2, 3)
        assert g.csr(build=False) is None


class TestServiceIntegration:
    def test_engine_freezes_and_answers_match_oracle(self, monkeypatch):
        from repro.service import ReachabilityService, engine

        g = preferential_attachment_graph(300, 3, seed=23, reciprocal=0.2)
        queries = generate_queries(g, 30, seed=7)
        truth = {(s, t): t in bfs_reachable(g, s) for s, t in queries}
        monkeypatch.setattr(engine, "CSR_FREEZE_THRESHOLD", 1)
        # use_labels=False: the label tier would resolve every query before
        # the engine, so no search would ever trigger a CSR freeze.
        with ReachabilityService(
            g.copy(),
            use_labels=False,
        ) as service:
            for s, t in queries:
                outcome = service.query(s, t)
                assert outcome.answer == truth[(s, t)], (s, t)
            snap = service.stats()
            assert snap["counters"].get("csr_freezes", 0) >= 1
            assert snap["graph"]["csr_cached"] is True

    def test_kernels_off_service_still_exact(self, monkeypatch):
        from repro.service import ReachabilityService, engine

        g = preferential_attachment_graph(200, 3, seed=29, reciprocal=0.2)
        queries = generate_queries(g, 20, seed=8)
        truth = {(s, t): t in bfs_reachable(g, s) for s, t in queries}
        # A version that never reaches the freeze threshold has no
        # snapshot: every search runs on the dict adjacency.
        monkeypatch.setattr(engine, "CSR_FREEZE_THRESHOLD", 10**9)
        with ReachabilityService(g.copy()) as service:
            for s, t in queries:
                assert service.query(s, t).answer == truth[(s, t)]
            assert service.stats()["counters"].get("csr_freezes", 0) == 0
