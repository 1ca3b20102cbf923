"""Extension bench — the wire layer's failover leg (ext_net_failover).

Over real loopback sockets: a replica follows the primary over a journal
subscription while updates stream in; the primary is killed abruptly
and the replica promotes via ``ReachabilityService.recover()`` on its
local journal. The recorded row must show zero BFS-oracle mismatches
at the promoted watermark. (Wire throughput is ``benchmarks/e2e``'s
``point_hot`` workload.)
"""

import asyncio
import time

from repro.baselines.bibfs import bibfs_is_reachable
from repro.datasets.scale_free import preferential_attachment_graph
from repro.net import ReachabilityClient, ReachabilityServer, ReplicaNode
from repro.service import FastPathPruner, ReachabilityService
from repro.workloads.queries import generate_queries

from benchmarks.conftest import once

NUM_VERTICES = 20_000
OUT_DEGREE = 10
RECIPROCAL = 0.08

FAILOVER_UPDATES = 100
FAILOVER_CHECKS = 200


def _graph():
    return preferential_attachment_graph(
        NUM_VERTICES,
        OUT_DEGREE,
        reciprocal=RECIPROCAL,
        seed=3,
    )


def _hard_pairs(graph, count, seed=5):
    """Uniform random pairs the fast-path pruner abstains on (the pairs
    serving actually has to search; O(1)-answered pairs would only
    measure the shared prefilter). Mirrors bench_batch."""
    probe = FastPathPruner(
        graph, seed=0, csr_provider=lambda: graph.csr(build=False)
    )
    pairs, chunk_seed = [], seed
    while len(pairs) < count:
        for s, t in generate_queries(graph, 2 * count, seed=chunk_seed):
            if s != t and probe.check(s, t) is None:
                pairs.append((s, t))
                if len(pairs) == count:
                    break
        chunk_seed += 1
    return pairs


def test_wire_failover_promotes_exactly(benchmark, emit, tmp_path):
    graph = _graph()
    check_pairs = _hard_pairs(graph, FAILOVER_CHECKS, seed=11)

    async def scenario():
        service = ReachabilityService(
            graph.copy(),
            seed=0,
            journal=tmp_path / "primary.wal",
        )
        server = await ReachabilityServer(service, port=0).start()
        node = ReplicaNode(
            *server.address,
            tmp_path / "replica.wal",
            service_kwargs={"seed": 0},
        )
        runner = asyncio.create_task(node.run())
        async with await ReachabilityClient.open(*server.address) as client:
            for i in range(FAILOVER_UPDATES):
                await client.add_edge(NUM_VERTICES + i, i * 7 % NUM_VERTICES)
        deadline = time.monotonic() + 30.0
        while node.watermark < service.watermark:
            if time.monotonic() > deadline:
                raise AssertionError("replica never converged")
            await asyncio.sleep(0.01)
        replicated = node.records_applied
        node.stop()
        await runner
        # Abrupt primary death: the replica's local journal is now the
        # only authority. Promotion = crash recovery over that journal.
        await server.stop()
        oracle_graph = service.graph.copy()
        watermark = node.watermark
        service.close()
        promote_start = time.perf_counter()
        promoted = node.promote()
        promote_s = time.perf_counter() - promote_start
        try:
            mismatches = sum(
                1
                for s, t in check_pairs
                if promoted.query(s, t).answer
                != bibfs_is_reachable(oracle_graph, s, t)
            )
            return {
                "replicated_records": replicated,
                "snapshots": node.snapshots_loaded,
                "watermark": watermark,
                "promoted_watermark": promoted.watermark,
                "promote_s": round(promote_s, 4),
                "oracle_checked": len(check_pairs),
                "mismatches": mismatches,
            }
        finally:
            await node.close()

    row = once(benchmark, lambda: asyncio.run(scenario()))
    emit(
        "ext_net_failover",
        "kill-the-primary failover: replica promotion via recover() "
        "checked against the BFS oracle at its watermark",
        [row],
        parameters={
            "n": NUM_VERTICES,
            "updates": FAILOVER_UPDATES,
            "checks": FAILOVER_CHECKS,
        },
    )
    assert row["mismatches"] == 0
    assert row["promoted_watermark"] == row["watermark"]
