"""Loopback tests for the self-healing control plane.

Supervised failover end to end on 127.0.0.1: heartbeats and lease
grants, watermark-ordered auto-promotion, the split-brain fence under a
partitioned supervisor, the shared journal-fanout tailer, and the
jittered reconnect backoff. Same conventions as ``test_net.py`` — real
sockets, ephemeral ports, every scenario bounded.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.net import (
    ClusterSupervisor,
    FailoverClient,
    ReachabilityClient,
    ReachabilityServer,
    ReplicaNode,
    ServerError,
)
from repro.service.engine import ReachabilityService
from repro.service.faults import Backoff

pytestmark = pytest.mark.net

#: Safety net: no loopback scenario may hang the suite.
SCENARIO_TIMEOUT_S = 30.0


def run(coro):
    async def bounded():
        return await asyncio.wait_for(coro, SCENARIO_TIMEOUT_S)

    return asyncio.run(bounded())


def chain_graph(n: int = 40) -> DynamicDiGraph:
    # Two chains: pairs across them are unreachable, within reachable.
    edges = [(i, i + 1) for i in range(n)]
    edges += [(1000 + i, 1001 + i) for i in range(n)]
    return DynamicDiGraph(edges)


@contextlib.asynccontextmanager
async def serving(service, **server_kwargs):
    server = ReachabilityServer(service, port=0, **server_kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


async def wait_until(predicate, timeout_s: float = 10.0, step_s: float = 0.01):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(step_s)


@contextlib.asynccontextmanager
async def supervised(server, tmp_path, *, replicas=2, **sup_kwargs):
    """A supervisor over ``server`` plus ``replicas`` serving followers."""
    sup_kwargs.setdefault("heartbeat_interval_s", 0.05)
    sup_kwargs.setdefault("heartbeat_misses", 3)
    sup = ClusterSupervisor(*server.address, **sup_kwargs)
    nodes = []
    try:
        for i in range(replicas):
            node = ReplicaNode(
                *server.address,
                tmp_path / f"replica{i}.wal",
                service_kwargs={"num_supportive": 0},
                reconnect_delay_s=0.02,
                seed=i,
            )
            await node.serve()
            nodes.append(node)
        await sup.start()
        for node in nodes:
            sup.add_replica(node)
        yield sup, nodes
    finally:
        await sup.stop()
        for node in nodes:
            await node.close()


# ----------------------------------------------------------------------
# Backoff (the shared retry schedule)
# ----------------------------------------------------------------------
def test_backoff_grows_caps_jitters_and_resets():
    b = Backoff(base_s=0.1, cap_s=0.5, seed=7)
    nominal = [0.1, 0.2, 0.4, 0.5, 0.5]
    delays = [b.next_delay() for _ in nominal]
    for got, want in zip(delays, nominal):
        # Jitter draws uniformly from [want/2, want].
        assert want / 2 <= got <= want
    assert b.attempts == len(nominal)
    snap = b.snapshot()
    assert snap["attempts"] == len(nominal)
    assert snap["last_delay_s"] == delays[-1]
    b.reset()
    assert b.attempts == 0
    assert b.next_delay() <= 0.1
    # Deterministic given the seed.
    assert [Backoff(base_s=0.1, cap_s=0.5, seed=7).next_delay()] == [delays[0]]
    with pytest.raises(ValueError):
        Backoff(base_s=0.0)
    with pytest.raises(ValueError):
        Backoff(base_s=0.2, cap_s=0.1)


# ----------------------------------------------------------------------
# Heartbeats + leases
# ----------------------------------------------------------------------
def test_heartbeat_grants_lease_and_publishes_endpoints(tmp_path):
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            async with serving(service) as server:
                async with supervised(server, tmp_path, replicas=1) as (
                    sup,
                    nodes,
                ):
                    await wait_until(
                        lambda: sup.counters.get("leases_granted", 0) >= 2
                    )
                    assert server.role == "primary"
                    assert not server.read_only
                    assert sup.counters.get("heartbeats", 0) >= 2
                    assert sup.epoch == 1  # healthy cluster: no bumps
                    await wait_until(lambda: nodes[0].connected)
                    # The control endpoint speaks the same framing.
                    async with await ReachabilityClient.open(
                        *sup.address
                    ) as ctl:
                        pong = await ctl.ping()
                        assert pong["role"] == "supervisor"
                        assert pong["epoch"] == 1
                        eps = await ctl.endpoints()
                        assert tuple(eps["primary"]) == server.address
                        assert len(eps["replicas"]) == 1
                        stats = await ctl.stats()
                        assert stats["stats"]["counters"]["heartbeats"] >= 2

    run(scenario())


# ----------------------------------------------------------------------
# Auto-failover
# ----------------------------------------------------------------------
def test_auto_failover_promotes_and_repoints(tmp_path):
    async def scenario():
        graph = chain_graph()
        loop = asyncio.get_running_loop()
        service = ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        )
        server = await ReachabilityServer(service, port=0).start()
        async with supervised(server, tmp_path, replicas=2) as (sup, nodes):
            client = await FailoverClient.open(
                *sup.address, base_delay_s=0.02, retry_cap_s=0.2
            )
            try:
                for i in range(5):
                    await client.add_edge(40, 1000 + i)
                await wait_until(
                    lambda: all(
                        n.watermark == service.watermark for n in nodes
                    )
                )
                watermark = service.watermark
                oracle = service.graph.copy()

                # Kill the primary, operator-free: stop serving, close.
                await server.stop()
                await loop.run_in_executor(None, service.close)
                await wait_until(lambda: sup.last_failover is not None)

                promoted = [n for n in nodes if n.promoted]
                assert len(promoted) == 1
                winner = promoted[0]
                assert winner.watermark == watermark
                assert sup.epoch == 2
                assert winner.server is not None
                assert not winner.server.read_only
                assert tuple(sup.primary) == winner.server.address
                # The loser follows the winner now.
                loser = next(n for n in nodes if n is not winner)
                assert (
                    loser.primary_host,
                    loser.primary_port,
                ) == winner.server.address

                # The same client keeps working across the failover:
                # reads match the oracle, writes land on the new primary
                # and replicate to the loser.
                for s, t in [(0, 40), (40, 1000), (0, 1040), (40, 1004)]:
                    outcome = await client.query(s, t)
                    assert outcome.answer == is_reachable_bfs(oracle, s, t)
                reply = await client.add_edge(0, 1000)
                assert reply["applied"]
                assert client.counters.get("failovers_observed", 0) >= 1
                await wait_until(
                    lambda: loser.watermark == winner.watermark
                )
            finally:
                await client.close()

    run(scenario())


def test_failover_elects_most_caught_up_replica(tmp_path):
    async def scenario():
        graph = chain_graph()
        loop = asyncio.get_running_loop()
        service = ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        )
        server = await ReachabilityServer(service, port=0).start()
        async with supervised(server, tmp_path, replicas=2) as (sup, nodes):
            async with await ReachabilityClient.open(*server.address) as c:
                for i in range(4):
                    await c.add_edge(40, 1000 + i)
            await wait_until(
                lambda: all(n.watermark == service.watermark for n in nodes)
            )
            # Hold replica 0 behind: sever it and point it at a black
            # hole, then advance the primary so replica 1 pulls ahead.
            nodes[0].repoint("127.0.0.1", 1)
            async with await ReachabilityClient.open(*server.address) as c:
                for i in range(4):
                    await c.add_edge(41, 2000 + i)
            await wait_until(lambda: nodes[1].watermark == service.watermark)
            assert nodes[0].watermark < nodes[1].watermark

            await server.stop()
            await loop.run_in_executor(None, service.close)
            await wait_until(lambda: sup.last_failover is not None)
            assert nodes[1].promoted and not nodes[0].promoted
            assert (
                sup.last_failover["winner_watermark"] == nodes[1].watermark
            )

    run(scenario())


# ----------------------------------------------------------------------
# Split brain: partitioned supervisor, exactly one writable primary
# ----------------------------------------------------------------------
def test_partitioned_supervisor_leaves_exactly_one_primary(tmp_path):
    async def scenario():
        graph = chain_graph()
        service = ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        )
        server = await ReachabilityServer(service, port=0).start()
        try:
            async with supervised(server, tmp_path, replicas=1) as (
                sup,
                nodes,
            ):
                await wait_until(
                    lambda: sup.counters.get("leases_granted", 0) >= 1
                )
                await wait_until(lambda: nodes[0].connected)
                # Partition the supervisor from the primary only. The
                # primary stops hearing lease renewals; the supervisor
                # declares it dead, fences a full TTL, and promotes.
                sup.partition_primary = True
                await wait_until(lambda: sup.last_failover is not None)
                assert nodes[0].promoted

                # The old primary's lease has provably expired behind
                # the fence: it demotes itself on the next write and
                # rejects it — the promoted replica is the only
                # writable head.
                async with await ReachabilityClient.open(
                    *server.address
                ) as stale:
                    with pytest.raises(ServerError) as err:
                        await stale.add_edge(0, 1040)
                    assert "read-only" in str(err.value)
                assert server.read_only and server.role == "demoted"
                new = nodes[0].server
                assert new is not None and not new.read_only
                async with await ReachabilityClient.open(
                    *new.address
                ) as fresh:
                    reply = await fresh.add_edge(0, 1040)
                    assert reply["applied"]

                # A stale supervisor epoch cannot resurrect the demoted
                # primary: grants at the demotion epoch are rejected.
                async with await ReachabilityClient.open(
                    *server.address
                ) as stale:
                    lease = await stale.lease(1, 1000.0)
                    assert not lease["granted"]
                    assert server.read_only
        finally:
            await server.stop()
            service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Journal fanout: one tailer, N subscribers
# ----------------------------------------------------------------------
def test_two_replicas_share_one_journal_tailer(tmp_path):
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            async with serving(service) as server:
                nodes = [
                    ReplicaNode(
                        *server.address,
                        tmp_path / f"fan{i}.wal",
                        service_kwargs={
                            "num_supportive": 0,
                        },
                        reconnect_delay_s=0.02,
                        seed=i,
                    )
                    for i in range(2)
                ]
                tasks = [asyncio.create_task(n.run()) for n in nodes]
                try:
                    await wait_until(
                        lambda: all(n.connected for n in nodes)
                    )
                    assert server.counters.get("net_subscribers", 0) == 2
                    # One shared tailer feeds both subscriber queues.
                    assert server.counters.get("net_tailers", 0) == 1
                    loop = asyncio.get_running_loop()
                    for i in range(6):
                        await loop.run_in_executor(
                            None, service.add_edge, 40, 3000 + i
                        )
                    await wait_until(
                        lambda: all(
                            n.watermark == service.watermark for n in nodes
                        )
                    )
                    assert all(n.records_applied == 6 for n in nodes)
                    assert server.counters.get("net_tailers", 0) == 1
                finally:
                    for n in nodes:
                        n.stop()
                    for t in tasks:
                        with contextlib.suppress(asyncio.TimeoutError):
                            await asyncio.wait_for(t, 5.0)
                    for n in nodes:
                        await n.close()

    run(scenario())


# ----------------------------------------------------------------------
# Replica reconnect backoff
# ----------------------------------------------------------------------
def test_replica_backoff_grows_while_down_and_resets_on_subscribe(tmp_path):
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            async with serving(service) as server:
                node = ReplicaNode(
                    # Port 1: nothing listens, every connect is refused.
                    "127.0.0.1",
                    1,
                    tmp_path / "replica.wal",
                    service_kwargs={"num_supportive": 0},
                    reconnect_delay_s=0.02,
                    reconnect_delay_max_s=0.1,
                )
                task = asyncio.create_task(node.run())
                try:
                    await wait_until(
                        lambda: node.stats()["backoff"]["attempts"] >= 3
                    )
                    assert not node.connected
                    # Heal: follow the live primary; a successful
                    # subscribe resets the schedule to the base delay.
                    node.repoint(*server.address)
                    await wait_until(lambda: node.connected)
                    assert node.stats()["backoff"]["attempts"] == 0
                    await wait_until(
                        lambda: node.watermark == service.watermark
                    )
                finally:
                    node.stop()
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(task, 5.0)
                    await node.close()

    run(scenario())


# ----------------------------------------------------------------------
# chaos-net artifacts hygiene
# ----------------------------------------------------------------------
def test_chaos_net_clears_only_the_journals_it_will_write(tmp_path):
    """A reused ``--artifacts`` directory holds the previous run's WALs;
    a scenario must start from journals it wrote, and touch nothing
    else in the directory."""
    from repro.net.chaos import _clear_journals

    stale = ["replica0.wal", "replica0.ckpt", "replica0.wal.tmp", "primary.wal"]
    foreign = ["partition_replica.wal", "supervisor.log", "notes.wal.txt"]
    for name in stale + foreign:
        (tmp_path / name).write_text("left over from another run\n")
    _clear_journals(tmp_path, "primary", "replica0", "replica1")  # replica1: absent
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(foreign)
