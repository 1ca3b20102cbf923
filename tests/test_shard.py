"""Tests for :mod:`repro.shard`: partition invariants and the worker fleet.

The partition tests are pure graph analysis (no processes, no numpy) and
run in tier 1 everywhere. The fleet tests spawn real worker processes
(``@pytest.mark.shard``, re-run in isolation by the tier-2 CI leg) and
amortize the ~1 s/worker spawn cost through a module-scoped router.
"""

import glob
import os
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.shard import ShardRouter, partition_graph, pipeline
from repro.shard.pipeline import GroupState, PipelineRun

from tests.conftest import random_graph


def chain_graph(num_cycles=40, cycle=5, seed=3):
    """A chain of small cycles with skip links and dangling sources/sinks
    — many SCCs, a deep condensation, and guaranteed cross-shard paths."""
    rng = random.Random(seed)
    g = DynamicDiGraph()
    for c in range(num_cycles):
        base = c * cycle
        for i in range(cycle):
            g.add_edge(base + i, base + (i + 1) % cycle)
        if c:
            g.add_edge(
                base - cycle + rng.randrange(cycle), base + rng.randrange(cycle)
            )
    n = num_cycles * cycle
    for _ in range(num_cycles // 2):
        a, b = rng.randrange(num_cycles), rng.randrange(num_cycles)
        if a < b:
            g.add_edge(
                a * cycle + rng.randrange(cycle), b * cycle + rng.randrange(cycle)
            )
    for d in range(8):
        g.add_edge(n + d, rng.randrange(n))
        g.add_edge(rng.randrange(n), n + 100 + d)
    return g


def giant_scc_graph():
    """One 60-vertex cycle (an SCC too big to balance at K=4) plus a
    feeder chain in and a drain chain out — forces a class split."""
    g = DynamicDiGraph()
    for i in range(60):
        g.add_edge(i, (i + 1) % 60)
    for i in range(10):  # 100..110 -> cycle
        g.add_edge(100 + i, 100 + i + 1)
    g.add_edge(110, 0)
    for i in range(10):  # cycle -> 200..210
        g.add_edge(200 + i, 200 + i + 1)
    g.add_edge(30, 200)
    g.add_edge(300, 301)  # an island, unreachable either way
    return g


def sample_pairs(graph, count, seed=0):
    rng = random.Random(seed)
    verts = sorted(graph.vertices())
    return [(rng.choice(verts), rng.choice(verts)) for _ in range(count)]


def label_hard_pairs(graph, count, seed=0):
    """Pairs the default DL/BL label tier abstains on — what a service on
    default settings still has for its shard rung once the label rung
    has answered nearly everything on a small graph."""
    from repro.graph.labels import LabelIndex

    labels = LabelIndex(graph)
    hard = [
        pair
        for pair in dict.fromkeys(sample_pairs(graph, 3000, seed))
        if pair[0] != pair[1] and labels.check(*pair) is None
    ]
    assert len(hard) >= count, len(hard)
    return hard[:count]


# ----------------------------------------------------------------------
# Partition invariants (tier 1: no processes, no numpy)
# ----------------------------------------------------------------------
class TestPartition:
    def test_covers_all_vertices_disjointly(self):
        g = chain_graph()
        plan = partition_graph(g, 4)
        assert set(plan.shard_of) == set(g.vertices())
        seen = set()
        for info in plan.shards:
            assert info.vertices  # a shard is never empty
            assert not seen.intersection(info.vertices)
            seen.update(info.vertices)
            for v in info.vertices:
                assert plan.shard_of[v] == info.index
        assert seen == set(g.vertices())

    def test_edge_volume_accounts_every_edge_once(self):
        g = chain_graph()
        plan = partition_graph(g, 4)
        assert sum(s.edge_volume for s in plan.shards) == g.num_edges

    def test_closed_segments_are_reachability_closed(self):
        g = chain_graph()
        plan = partition_graph(g, 4)
        for info in plan.shards:
            if not info.closed:
                continue
            sub = plan.subgraphs[info.index]
            members = list(info.vertices)[:12]
            for s in members:
                for t in members:
                    assert is_reachable_bfs(sub, s, t) == is_reachable_bfs(
                        g, s, t
                    ), (s, t, info.index)

    def test_quotient_negative_is_sound(self):
        g = chain_graph()
        plan = partition_graph(g, 4)
        checked = 0
        for s, t in sample_pairs(g, 400, seed=1):
            ks, kt = plan.shard_of[s], plan.shard_of[t]
            if kt not in plan.quotient_reach[ks]:
                assert not is_reachable_bfs(g, s, t), (s, t)
                checked += 1
        assert checked > 0  # the sample must actually exercise the rule

    def test_quotient_reach_includes_self(self):
        plan = partition_graph(chain_graph(), 4)
        for info in plan.shards:
            assert info.index in plan.quotient_reach[info.index]

    def test_degree_liveness_negative_is_sound(self):
        g = chain_graph()
        plan = partition_graph(g, 4)
        checked = 0
        for s in g.vertices():
            ks = plan.shard_of[s]
            if s in plan.live_out[ks]:
                continue
            checked += 1
            # No routed out-edge: s reaches nothing but itself.
            for t in list(g.vertices())[:25]:
                if t != s:
                    assert not is_reachable_bfs(g, s, t), (s, t)
        # The dangling sinks (n+100+d) have no out-edges at all.
        assert checked >= 8
        dead_in = 0
        for t in g.vertices():
            kt = plan.shard_of[t]
            if t in plan.live_in[kt]:
                continue
            dead_in += 1
            for s in list(g.vertices())[:25]:
                if s != t:
                    assert not is_reachable_bfs(g, s, t), (s, t)
        assert dead_in >= 8  # the dangling sources (n+d)

    def test_class_split_and_summaries_exact(self):
        g = giant_scc_graph()
        plan = partition_graph(g, 4)
        class_shards = [s for s in plan.shards if s.scc_class is not None]
        assert class_shards, "the 60-cycle should have been split"
        assert all(not s.closed for s in class_shards)
        cycle = set(range(60))
        covered = set()
        for info in class_shards:
            covered.update(info.vertices)
        assert covered == cycle
        cid = class_shards[0].scc_class
        member = next(iter(class_shards[0].vertices))
        reaches = {
            v for v in g.vertices() if is_reachable_bfs(g, v, member)
        }
        reached = {
            v for v in g.vertices() if is_reachable_bfs(g, member, v)
        }
        assert set(plan.reaches_class[cid]) == reaches
        assert set(plan.reached_from_class[cid]) == reached

    def test_cross_edges_never_enter_class_shards(self):
        for g in (chain_graph(), giant_scc_graph()):
            plan = partition_graph(g, 4)
            for shard, by_tail in plan.cross_out.items():
                for tail, heads in by_tail.items():
                    assert plan.shard_of[tail] == shard
                    for head, head_shard in heads:
                        assert head_shard != shard
                        assert plan.shard_of[head] == head_shard
                        # Paths through a split class are answered by the
                        # class summaries; the search never enters one.
                        assert plan.shards[head_shard].scc_class is None
                assert sorted(by_tail) == plan.boundary_out[shard]

    def test_rule_verdicts_match_oracle(self):
        """Every summary rule the router applies, checked exhaustively:
        same-SCC, class membership, and quotient-negative are exact."""
        for g in (giant_scc_graph(), random_graph(40, 120, seed=13)):
            plan = partition_graph(g, 4)
            class_of = {
                s.index: s.scc_class for s in plan.shards
            }
            for s in g.vertices():
                for t in g.vertices():
                    truth = is_reachable_bfs(g, s, t)
                    if plan.scc_of[s] == plan.scc_of[t]:
                        assert truth, (s, t)
                        continue
                    ct = class_of[plan.shard_of[t]]
                    if ct is not None:
                        assert truth == (s in plan.reaches_class[ct]), (s, t)
                    cs = class_of[plan.shard_of[s]]
                    if cs is not None:
                        assert truth == (
                            t in plan.reached_from_class[cs]
                        ), (s, t)
                    if (
                        plan.shard_of[t]
                        not in plan.quotient_reach[plan.shard_of[s]]
                    ):
                        assert not truth, (s, t)

    def test_single_shard_target(self):
        g = DynamicDiGraph(edges=[(i, (i + 1) % 10) for i in range(10)])
        plan = partition_graph(g, 1)  # one SCC, one shard
        assert plan.num_shards == 1
        assert plan.shards[0].closed
        assert plan.quotient_reach[0] == frozenset({0})
        # The count is a target, not a promise — but shards are never
        # empty, so tiny graphs yield fewer shards than asked for.
        tiny = partition_graph(DynamicDiGraph(edges=[(0, 1)]), 8)
        assert 1 <= tiny.num_shards <= 2
        assert all(s.vertices for s in tiny.shards)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            partition_graph(DynamicDiGraph(edges=[(0, 1)]), 0)

    def test_summary_is_plain_data(self):
        plan = partition_graph(chain_graph(), 3)
        summary = plan.summary()
        assert summary["num_shards"] == plan.num_shards
        assert len(summary["edge_volumes"]) == plan.num_shards


# ----------------------------------------------------------------------
# Cross-shard fixpoint (tier 1: GroupState is pure python, no processes)
# ----------------------------------------------------------------------
def local_closure(plan, shard, seeds, probes):
    """What a worker's ``reach`` answers, computed in process: the
    forward closure of each seed inside the shard's own subgraph,
    reported as ``{probe: lane_mask}`` for probes with a non-zero mask."""
    sub = plan.subgraphs[shard]
    label = {}
    for v, mask in seeds:
        stack, seen = [v], {v}
        while stack:
            u = stack.pop()
            label[u] = label.get(u, 0) | mask
            for w in sub.out_neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return {p: label[p] for p in probes if label.get(p)}


def fixpoint_decides(plan, s, t):
    """Pairs the cross-shard fixpoint alone must get right: endpoints in
    different shards with no split class on or between them (the class
    summaries answer those; the search never enters a class shard)."""
    ks, kt = plan.shard_of[s], plan.shard_of[t]
    if ks == kt or any(plan.shards[k].scc_class is not None for k in (ks, kt)):
        return False
    return not any(
        s in reaches and t in plan.reached_from_class[cid]
        for cid, reaches in plan.reaches_class.items()
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(6, 18),
    density=st.floats(0.8, 2.5),
    num_shards=st.integers(2, 4),
    graph_seed=st.integers(0, 10**6),
    order=st.randoms(use_true_random=False),
)
def test_cross_fixpoint_is_order_independent(
    n, density, num_shards, graph_seed, order
):
    """Chaotic iteration is confluent: whatever order the closure
    replies of one group land in, the drained fixpoint equals the BFS
    oracle, and the per-shard ``sent`` masks only ever grow (which is
    what bounds it)."""
    graph = random_graph(n, int(n * density), seed=graph_seed)
    plan = partition_graph(graph, num_shards)
    verts = sorted(graph.vertices())
    pairs = [
        (s, t) for s in verts for t in verts if fixpoint_decides(plan, s, t)
    ]
    order.shuffle(pairs)
    pairs = pairs[:64]
    if not pairs:
        return
    group = GroupState(plan, pairs)
    sent_before = {}

    def flush():
        posts = group.flush(plan)
        for shard, masks in group.sent.items():
            for v, mask in masks.items():
                before = sent_before.get((shard, v), 0)
                assert mask & before == before, (shard, v)
                sent_before[(shard, v)] = mask
        return posts

    posted = flush()
    while posted:
        shard, seeds = posted.pop(order.randrange(len(posted)))
        probes = [
            *plan.boundary_out.get(shard, []),
            *group.targets_in.get(shard, {}),
        ]
        group.absorb(plan, shard, local_closure(plan, shard, seeds, probes))
        posted.extend(flush())
    for (s, t), (answer, how) in group.verdicts().items():
        assert how == "cross"
        assert answer == is_reachable_bfs(graph, s, t), (s, t)


# ----------------------------------------------------------------------
# Worker fleet (tier 2: spawns processes)
# ----------------------------------------------------------------------
def shm_segments():
    return glob.glob("/dev/shm/ifca*")


@pytest.fixture(scope="module")
def fleet():
    """One spawned K=3 fleet shared by the read-only router tests."""
    graph = chain_graph()
    router = ShardRouter(graph, 3, call_timeout_s=20.0)
    yield graph, router
    router.close()


@pytest.mark.shard
class TestRouter:
    def test_batch_matches_oracle(self, fleet):
        graph, router = fleet
        pairs = sample_pairs(graph, 200, seed=5)
        resolved, unresolved = router.execute_batch(pairs)
        assert not unresolved  # healthy fleet, known endpoints, no budget
        hows = set()
        for (s, t), (answer, how) in resolved.items():
            assert answer == is_reachable_bfs(graph, s, t), (s, t, how)
            hows.add(how)
        # The chain graph must exercise both worker paths, not just the
        # summary rules.
        assert "wave" in hows or "scc" in hows
        assert "cross" in hows

    def test_unknown_endpoints_are_unresolved(self, fleet):
        graph, router = fleet
        resolved, unresolved = router.execute_batch([(1, 10**9), (10**9, 1)])
        assert not resolved
        assert len(unresolved) == 2

    def test_stats_surface(self, fleet):
        _, router = fleet
        stats = router.stats()
        assert stats["plan"]["num_shards"] == router.num_shards
        assert stats["healthy"] is True
        assert stats["workers_alive"] == router.num_shards
        assert stats["num_workers"] == router.num_shards
        assert stats["inflight_window"] >= 1
        assert stats["counters"].get("deploys", 0) >= 1

    def test_zero_edge_ceiling_unresolves_searches(self, fleet):
        graph, router = fleet
        pairs = sample_pairs(graph, 60, seed=6)
        resolved, unresolved = router.execute_batch(pairs, edge_ceiling=0)
        # Summary verdicts (scc/class/quotient/deg) are free and still
        # fire; anything needing a worker search must come back
        # unresolved rather than wrong.
        for (s, t), (answer, how) in resolved.items():
            assert how in {"scc", "class", "class-neg", "quotient", "deg"}
            assert answer == is_reachable_bfs(graph, s, t)
        assert unresolved


@pytest.mark.shard
def test_fleet_refresh_kill_cleanup():
    """Lifecycle in one spawn session: in-place swap on refresh, worker
    death contained as unresolved (never wrong), manual respawn against
    the same plan, segments unlinked on close. ``auto_respawn=False``
    keeps the kill-and-forget containment path observable."""
    graph = chain_graph(num_cycles=20)
    pairs = sample_pairs(graph, 120, seed=7)
    preexisting = set(shm_segments())  # e.g. the module fixture's fleet
    router = ShardRouter(graph, 2, call_timeout_s=20.0, auto_respawn=False)
    try:
        assert set(shm_segments()) - preexisting
        # First refresh changes the shard count (3 -> 2 on this graph),
        # so the router tears down and respawns against the new plan.
        updated = graph.copy()
        updated.add_edge(0, 97)
        router.refresh(updated)
        assert router.version == updated.version
        assert router.counters.get("deploys") == 2
        # Second refresh keeps the count: same workers, segments swapped
        # in place.
        updated = updated.copy()
        updated.add_edge(116, 117)
        workers_before = list(router._workers)
        router.refresh(updated)
        assert router.version == updated.version
        assert router.counters.get("swaps") == 1
        assert router._workers == workers_before
        resolved, unresolved = router.execute_batch(pairs)
        assert not unresolved
        for (s, t), (answer, _) in resolved.items():
            assert answer == is_reachable_bfs(updated, s, t)

        # Kill a worker: its shard's searches become unresolved, the
        # rest keep answering, nothing wedges and nothing lies.
        router._workers[0].process.kill()
        router._workers[0].process.join(5)
        resolved, unresolved = router.execute_batch(pairs)
        assert not router.healthy  # the failed call marked the worker dead
        assert set(resolved) | set(unresolved) == set(pairs)
        assert not set(resolved) & set(unresolved)
        for (s, t), (answer, _) in resolved.items():
            assert answer == is_reachable_bfs(updated, s, t)

        # Respawn against the SAME plan: the dead worker's segments were
        # never unlinked, the replacement re-attaches and answers the
        # probe, and no repartition/republish happens.
        deploys_before = router.counters.get("deploys")
        version_before = router.version
        assert router.respawn_dead() == 1
        assert router.healthy
        assert router.counters.get("worker_respawns") == 1
        assert router.counters.get("deploys") == deploys_before
        assert router.version == version_before
        resolved, unresolved = router.execute_batch(pairs)
        assert not unresolved
        for (s, t), (answer, _) in resolved.items():
            assert answer == is_reachable_bfs(updated, s, t)
    finally:
        router.close()
    # No leaked shared-memory segments from this fleet.
    assert set(shm_segments()) <= preexisting


@pytest.mark.shard
def test_sharded_service_end_to_end(monkeypatch):
    """ReachabilityService(shards=K) on default settings (label tier
    on): the label rung filters, the shard rung routes what it leaves;
    oracle equality, stale-fleet correctness after an update,
    threshold-triggered refresh."""
    from repro.service import ReachabilityService, engine

    # Deep enough that the label rung (64 landmarks + bloom words) leaves
    # survivors; the sampled pairs alone would all die above the fleet.
    graph = chain_graph(num_cycles=120)
    pairs = sample_pairs(graph, 110, seed=8) + label_hard_pairs(graph, 30)
    monkeypatch.setattr(engine, "SHARD_REFRESH_THRESHOLD", 3)
    with ReachabilityService(
        graph.copy(), shards=2, num_supportive=0, cache_capacity=4,
    ) as svc:
        outcomes = svc.query_batch(pairs)
        for (s, t), outcome in zip(pairs, outcomes):
            assert outcome.answer == is_reachable_bfs(graph, s, t)
        vias = {outcome.via for outcome in outcomes}
        assert {"labels", "shard"} <= vias, vias
        assert svc.router is not None and svc.router.healthy
        stats = svc.stats()
        assert stats["counters"].get("shard_batches", 0) >= 1
        assert stats["counters"].get("shard_resolved", 0) > 0
        assert "shards" in stats

        # Update: the fleet is stale for the next batches but answers
        # must stay exact (stale routes are skipped, local path serves).
        svc.add_edge(0, 61)
        updated = graph.copy()
        updated.add_edge(0, 61)
        outcomes = svc.query_batch(pairs[-60:])
        for (s, t), outcome in zip(pairs[-60:], outcomes):
            assert outcome.answer == is_reachable_bfs(updated, s, t)
        # Enough walks reaching the shard rung at the new version (the
        # label-hard tail does) trigger one refresh.
        for _ in range(4):
            svc.query_batch(pairs[-20:])
        assert svc.router.version == svc.graph.version


@pytest.mark.shard
def test_auto_respawn_heals_service_fleet():
    """SIGKILL a worker under a live service: the next routed batch
    self-heals the fleet by re-attaching the same plan's segments — no
    repartition, no republish — and answers keep matching the oracle."""
    from repro.service import ReachabilityService

    graph = chain_graph(num_cycles=120)
    pairs = sample_pairs(graph, 80, seed=11) + label_hard_pairs(graph, 30)
    with ReachabilityService(
        graph.copy(), shards=2, num_supportive=0, cache_capacity=4,
    ) as svc:
        svc.query_batch(pairs)  # deploys the fleet
        router = svc.router
        assert router is not None and router.healthy
        deploys = router.counters.get("deploys")
        version = router.version
        victim = router._workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(5)
        outcomes = svc.query_batch(pairs)
        for (s, t), outcome in zip(pairs, outcomes):
            assert outcome.answer == is_reachable_bfs(graph, s, t), (s, t)
        assert router.healthy  # degraded flag cleared by the probe wave
        assert router.counters.get("worker_respawns", 0) >= 1
        assert router.counters.get("deploys") == deploys  # no repartition
        assert router.version == version


@pytest.mark.shard
def test_kill_midwave_releases_cleanly():
    """``ShardWorkerHandle.kill()`` mid-call: the process is reaped (no
    zombie), the published segments survive for the replacement to
    re-attach, and ``close()`` still unlinks everything exactly once."""
    graph = chain_graph(num_cycles=16)
    pairs = sample_pairs(graph, 80, seed=12)
    preexisting = set(shm_segments())
    router = ShardRouter(
        graph, 2, call_timeout_s=20.0, respawn_cooldown_s=0.0
    )
    try:
        published = set(shm_segments()) - preexisting
        assert published
        # Post a wave and kill before collecting the reply — the seam a
        # crash-mid-batch lands on.
        victim = router._workers[0]
        victim.conn.send(
            (0, ("wave", router.version, 0, pairs, "forward", None, None))
        )
        victim.kill()
        assert not victim.process.is_alive()  # reaped, not a zombie
        # SIGKILL skipped all worker cleanup; the router's segments must
        # all still be published (workers never own unlinking).
        assert set(shm_segments()) - preexisting == published
        assert router.respawn_dead() == 1
        assert router.healthy
        resolved, unresolved = router.execute_batch(pairs)
        assert not unresolved
        for (s, t), (answer, _) in resolved.items():
            assert answer == is_reachable_bfs(graph, s, t)
        # A handle close is idempotent: overlapping teardown paths may
        # hit the same handle twice without a double-unlink.
        router._segments[0].close()
        router._segments[0].close()
    finally:
        router.close()
    assert set(shm_segments()) <= preexisting


@pytest.mark.shard
def test_worker_death_mid_cross_fixpoint(monkeypatch):
    """SIGKILL a worker *mid-fixpoint*: the reactor is about to absorb
    the second ``reach`` reply of a cross group when the replying worker
    dies and the reply is lost with it. The group falls back unresolved
    as a whole (all-or-nothing — a partial fixpoint could answer a lane
    falsely), nothing wedges, and the service's local fallback keeps
    every answer oracle-exact."""
    from repro.service import ReachabilityService
    from repro.shard.pipeline import _CrossJob

    graph = chain_graph(num_cycles=24)
    pairs = sample_pairs(graph, 150, seed=13)
    with ReachabilityService(
        # No label tier: its batch prefilter would answer the cross-shard
        # pairs before any worker round trip, and this test needs the
        # fixpoint to actually run.
        graph.copy(), shards=3, num_supportive=0, cache_capacity=4,
        use_labels=False,
    ) as svc:
        svc.query_batch(pairs[:10])
        router = svc.router
        assert router is not None
        original = PipelineRun._on_reply
        state = {"reach_replies": {}, "killed": False, "doomed": ()}

        def sabotaged(self, widx, reply):
            entry = self._inflight.get(reply[0])
            if (
                not state["killed"]
                and entry is not None
                and isinstance(entry[0], _CrossJob)
            ):
                group = entry[0].group
                seen = state["reach_replies"][id(group)] = (
                    state["reach_replies"].get(id(group), 0) + 1
                )
                if seen == 2:
                    state["killed"] = True
                    state["doomed"] = set(group.pairs)
                    victim = router._workers[widx]
                    os.kill(victim.process.pid, signal.SIGKILL)
                    victim.process.join(5)
                    # The death beats the read: the reply is lost with
                    # the worker, as if the recv had hit EOF instead.
                    raise EOFError("worker died before its reply was read")
            return original(self, widx, reply)

        monkeypatch.setattr(PipelineRun, "_on_reply", sabotaged)
        outcomes = svc.query_batch(pairs)
        for (s, t), outcome in zip(pairs, outcomes):
            assert outcome.answer == is_reachable_bfs(graph, s, t), (s, t)
            if (s, t) in state["doomed"]:
                assert outcome.via != "shard", (s, t)  # no lane survived
        assert state["killed"]  # the sabotage actually fired
        counters = svc.stats()["counters"]
        assert counters.get("shard_unresolved", 0) > 0
        assert router.counters.get("worker_failures", 0) >= 1


# ----------------------------------------------------------------------
# The scheduler: wire protocol, backpressure, containment, scalar routing
# ----------------------------------------------------------------------
@pytest.mark.shard
def test_tagged_protocol_reply_matching(fleet):
    """The wire protocol has one shape: every request is ``(req_id,
    msg)`` and every reply ``(req_id, reply)`` — control messages
    included. Multiple requests in flight on one pipe echo their ids
    back, and any worker serves any shard's wave (the pool has every
    segment attached)."""
    graph, router = fleet
    worker = router._workers[0]
    worker.conn.send((11, ("ping",)))
    worker.conn.send((7, ("probe", router.version)))
    worker.conn.send((3, ("ping",)))
    replies = [worker.conn.recv() for _ in range(3)]
    assert [rid for rid, _ in replies] == [11, 7, 3]
    assert replies[0][1] == ("ok", router.version)
    probe = replies[1][1]
    assert probe[0] == "ok" and len(probe[2]) == router.num_shards

    # Worker 0 serving a wave for the *last* shard: with the old
    # shard-bound protocol this was impossible; now shard is an argument.
    plan = router._plan
    shard = router.num_shards - 1
    verts = sorted(v for v, k in plan.shard_of.items() if k == shard)[:6]
    wave_pairs = [(a, b) for a in verts for b in verts]
    worker.conn.send(
        (5, ("wave", router.version, shard, wave_pairs, "forward", None, None))
    )
    rid, reply = worker.conn.recv()
    assert rid == 5 and reply[0] == "ok"
    sub = plan.subgraphs[shard]
    for (s, t), answer in zip(wave_pairs, reply[1]):
        assert answer == is_reachable_bfs(sub, s, t), (s, t)

    # The control plane's one entry speaks the same shape and checks
    # the echoed id.
    assert worker.call(("ping",), 20.0) == ("ok", router.version)
    assert worker.call(("probe", router.version), 20.0)[0] == "ok"


@pytest.mark.shard
def test_two_routers_share_a_process():
    """Two routers over equal-version graphs publish the same (shard,
    version) pairs; each router's token keeps the segment names apart,
    both serve exactly, and both unlink everything they published."""
    graph = chain_graph(num_cycles=16)
    twin = graph.copy()
    assert twin.version == graph.version
    pairs = sample_pairs(graph, 80, seed=19)
    preexisting = set(shm_segments())
    first = ShardRouter(graph, 2, call_timeout_s=20.0)
    try:
        second = ShardRouter(twin, 2, call_timeout_s=20.0)
        try:
            names = [h.name for h in first._segments + second._segments]
            assert len(set(names)) == len(names)
            prefix = f"ifca{os.getpid()}s"  # what teardown audits match on
            assert all(name.startswith(prefix) for name in names)
            for router in (first, second):
                resolved, unresolved = router.execute_batch(pairs)
                assert not unresolved
                for (s, t), (answer, how) in resolved.items():
                    assert answer == is_reachable_bfs(graph, s, t), (s, t, how)
        finally:
            second.close()
    finally:
        first.close()
    assert set(shm_segments()) <= preexisting


@pytest.fixture
def window_of_one(monkeypatch):
    """Serialize each worker: one tagged request in flight at a time."""
    monkeypatch.setattr(pipeline, "INFLIGHT_WINDOW", 1)


@pytest.mark.shard
def test_inflight_window_backpressure(window_of_one):
    """window=1 floods: more jobs than window slots must stall the queue
    (counted) rather than overrun the pipes, and every verdict stays
    oracle-exact with replies matched out of posted order."""
    graph = chain_graph(num_cycles=36)
    pairs = sample_pairs(graph, 400, seed=23)
    router = ShardRouter(graph, 3, call_timeout_s=20.0)
    try:
        assert router.stats()["inflight_window"] == 1
        resolved, unresolved = router.execute_batch(pairs)
        assert not unresolved
        for (s, t), (answer, how) in resolved.items():
            assert answer == is_reachable_bfs(graph, s, t), (s, t, how)
        assert router.counters.get("route_pipeline_batches", 0) == 1
        assert router.counters.get("route_inflight_stalls", 0) >= 1
    finally:
        router.close()


@pytest.mark.shard
def test_sigkill_mid_pipeline_contains_to_one_worker(monkeypatch, window_of_one):
    """SIGKILL one worker while the reactor has many jobs in flight:
    only that worker's jobs (and their groups, all-or-nothing) fail,
    surviving workers' replies keep landing, nothing wedges, and a
    respawn re-attaches the same plan for a clean follow-up batch."""
    graph = chain_graph(num_cycles=24)
    pairs = sample_pairs(graph, 400, seed=25)
    router = ShardRouter(graph, 3, call_timeout_s=20.0, auto_respawn=False)
    try:
        original = PipelineRun._pump
        state = {"pumps": 0, "killed": False}

        def sabotaged(self):
            state["pumps"] += 1
            if state["pumps"] == 2 and not state["killed"]:
                victim = router._workers[0]
                if victim.process.is_alive():
                    os.kill(victim.process.pid, signal.SIGKILL)
                    victim.process.join(5)
                state["killed"] = True
            return original(self)

        monkeypatch.setattr(PipelineRun, "_pump", sabotaged)
        resolved, unresolved = router.execute_batch(pairs)
        assert state["killed"]
        assert not router.healthy
        assert set(resolved) | set(unresolved) == set(dict.fromkeys(pairs))
        assert not set(resolved) & set(unresolved)
        for (s, t), (answer, how) in resolved.items():
            assert answer == is_reachable_bfs(graph, s, t), (s, t, how)
        # Containment, not collapse: the surviving workers still answered.
        assert resolved

        assert router.respawn_dead() == 1
        assert router.healthy
        resolved, unresolved = router.execute_batch(pairs)
        assert not unresolved
        for (s, t), (answer, _how) in resolved.items():
            assert answer == is_reachable_bfs(graph, s, t), (s, t)
    finally:
        router.close()


@pytest.mark.shard
def test_sigstop_mid_pipeline_convicted_by_timeout(monkeypatch, window_of_one):
    """SIGSTOP freezes a worker without closing its pipe — only the
    in-flight age watchdog can convict it. The batch must complete with
    the stopped worker's jobs contained, never wedge on the dead pipe."""
    graph = chain_graph(num_cycles=24)
    pairs = sample_pairs(graph, 400, seed=27)
    router = ShardRouter(graph, 3, call_timeout_s=1.5, auto_respawn=False)
    try:
        original = PipelineRun._wait_once
        state = {"waits": 0}

        def sabotaged(self):
            state["waits"] += 1
            if state["waits"] == 1:
                os.kill(router._workers[1].process.pid, signal.SIGSTOP)
            return original(self)

        monkeypatch.setattr(PipelineRun, "_wait_once", sabotaged)
        resolved, unresolved = router.execute_batch(pairs)
        assert state["waits"] >= 1
        assert not router.healthy  # convicted by timeout, not by EOF
        assert router.counters.get("worker_failures", 0) >= 1
        assert set(resolved) | set(unresolved) == set(dict.fromkeys(pairs))
        for (s, t), (answer, how) in resolved.items():
            assert answer == is_reachable_bfs(graph, s, t), (s, t, how)
    finally:
        router.close()  # SIGKILL terminates even a stopped process


@pytest.mark.shard
def test_scalar_routing_vs_oracle_under_churn(monkeypatch):
    """Scalar ``query()`` is a width-1 walk: it routes through the
    deployed fleet (``via == "shard"``), stays oracle-exact through churn
    that leaves the fleet stale, and rides again once enough walks
    re-anchor the fleet at the new epoch."""
    from repro.service import ReachabilityService, engine

    graph = chain_graph(num_cycles=24)
    pairs = sample_pairs(graph, 120, seed=17)
    monkeypatch.setattr(engine, "SHARD_REFRESH_THRESHOLD", 2)
    with ReachabilityService(
        graph.copy(), shards=3, num_supportive=0, cache_capacity=4,
        use_labels=False,
    ) as svc:
        svc.query_batch(pairs)  # deploys the fleet
        router = svc.router
        assert router is not None
        routed = 0
        for s, t in pairs:
            outcome = svc.query(s, t)
            assert outcome.answer == is_reachable_bfs(graph, s, t), (s, t)
            routed += outcome.via == "shard"
        assert routed > 0
        assert router.counters.get("route_pipeline_batches", 0) > 1

        # Churn: the fleet is stale for the new version — the first walk
        # there skips it (the refresh threshold is 2) and stays exact.
        svc.add_edge(1, 66)
        oracle = graph.copy()
        oracle.add_edge(1, 66)
        stale = svc.query(*pairs[0])
        assert stale.via != "shard"
        assert svc.router.version != svc.graph.version
        for s, t in pairs[:40]:
            outcome = svc.query(s, t)
            assert outcome.answer == is_reachable_bfs(oracle, s, t), (s, t)

        # Walks at the new version re-anchor the fleet; scalar rides it.
        assert svc.router.version == svc.graph.version
        routed = 0
        for s, t in pairs[40:90]:
            outcome = svc.query(s, t)
            assert outcome.answer == is_reachable_bfs(oracle, s, t), (s, t)
            routed += outcome.via == "shard"
        assert routed > 0


def test_service_shard_fallback_when_deploy_fails(monkeypatch):
    """shards=K whose fleet cannot deploy degrades to the local path — no
    router, exact answers, and sharding off after two failed deploys."""
    import repro.service.engine as engine_mod
    from repro.service import ReachabilityService

    def no_fleet(*args, **kwargs):
        raise OSError("injected deploy failure")

    monkeypatch.setattr(engine_mod, "ShardRouter", no_fleet)
    graph = chain_graph(num_cycles=10)
    # Index rungs weakened and fresh pairs each walk, so every walk
    # reaches the shard rung.
    with ReachabilityService(
        graph.copy(), shards=4, num_supportive=0, use_labels=False
    ) as svc:
        for seed in range(3):
            pairs = sample_pairs(graph, 40, seed=seed)
            outcomes = svc.query_batch(pairs)
            for (s, t), outcome in zip(pairs, outcomes):
                assert outcome.answer == is_reachable_bfs(graph, s, t)
        assert svc.router is None
        counters = svc.stats()["counters"]
        assert counters["stage_errors_shard"] == 2
        assert counters.get("shard_batches", 0) == 0
