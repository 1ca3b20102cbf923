"""Loopback tests for the wire layer: server, client, replication.

Everything runs against real sockets on 127.0.0.1 (ephemeral ports) with
``asyncio.run`` driving each scenario. Marked ``net`` — the tier-2 CI
leg runs this file alone; it also runs under the
tier-1 sweep, so every scenario is kept small and bounded.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading

import pytest

from repro.graph.digraph import DynamicDiGraph
from repro.graph.journal import JournalReplayError
from repro.graph.traversal import is_reachable_bfs
from repro.net import (
    ReachabilityClient,
    ReachabilityServer,
    ReplicaNode,
    ServerError,
    protocol,
)
from repro.service import engine
from repro.service.engine import ReachabilityService

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


# ----------------------------------------------------------------------
# Query / batch / update / stats over the wire
# ----------------------------------------------------------------------
def test_wire_queries_match_bfs_oracle():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph) as service:
            async with serving(service) as server:
                pairs = [(0, 40), (40, 0), (0, 1040), (1000, 1040), (5, 35)]
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    for s, t in pairs:
                        outcome = await client.query(s, t)
                        assert outcome.answer == is_reachable_bfs(graph, s, t)
                        assert outcome.confident
                        assert outcome.version == graph.version
                    batch = await client.query_batch(pairs)
                    assert [o.answer for o in batch] == [
                        is_reachable_bfs(graph, s, t) for s, t in pairs
                    ]

    run(scenario())


def test_concurrent_wire_queries_coalesce_into_waves():
    async def scenario():
        graph = chain_graph()
        # use_labels=False so the coalesced batch is not fully resolved by
        # the label prefilter — the point is to see it take the batch
        # pipeline's auto cutover rather than 32 scalar calls.
        with ReachabilityService(
            graph, use_labels=False
        ) as service:
            # A gathering window makes wave packing deterministic: all
            # 32 concurrent queries are enqueued before the first drain.
            async with serving(
                service, coalesce_delay_s=0.05
            ) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    pairs = [(i, 40) for i in range(16)]
                    pairs += [(0, 1000 + i) for i in range(16)]
                    outcomes = await asyncio.gather(
                        *[client.query(s, t) for s, t in pairs]
                    )
                assert [o.answer for o in outcomes] == [True] * 16 + [
                    False
                ] * 16
                assert server.counters["net_coalesced_waves"] == 1
                assert server.counters["net_coalesced_queries"] == 32
        # The wave went through the batch pipeline, not 32 scalar calls.
        counters = service.stats()["counters"]
        assert (
            counters.get("batch_auto_bitparallel", 0)
            + counters.get("batch_auto_scalar", 0)
            + counters.get("batch_scalar_fallback", 0)
            >= 1
        )

    run(scenario())


def test_batch_frame_strategy_field_cannot_pick_a_code_path():
    """A legacy (or hostile) ``batch`` frame may still carry
    ``"strategy"``: the server does not read it, so on equal service
    state every value gets the outcomes of a frame without the field,
    and no pool thread appears."""
    graph = chain_graph()
    pairs = [(0, 40), (40, 0), (0, 1040), (1000, 1040), (5, 35), (5, 35)]

    async def scenario(extra):
        with ReachabilityService(graph.copy()) as service:
            async with serving(service) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    reply = await client._request(
                        {
                            "type": protocol.BATCH,
                            "pairs": [[s, t] for s, t in pairs],
                            **extra,
                        }
                    )
                assert "net_request_errors" not in server.counters
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("reach-serve")
        ]
        return reply["outcomes"]

    plain = run(scenario({}))
    assert [o["answer"] for o in plain] == [
        is_reachable_bfs(graph, s, t) for s, t in pairs
    ]
    for value in ("scalar", "bitparallel", "simd"):
        assert run(scenario({"strategy": value})) == plain, value


def test_shed_response_carries_live_retry_after_hint():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(
            graph, max_pending=1
        ) as service:
            # Hold the drain long enough that the first query is still
            # queued (inflight=1) when the rest arrive -> they shed.
            async with serving(service, coalesce_delay_s=0.2) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    outcomes = await asyncio.gather(
                        *[client.query(0, 40) for _ in range(5)]
                    )
                shed = [o for o in outcomes if o.via == "shed"]
                served = [o for o in outcomes if o.via != "shed"]
                assert len(served) == 1 and served[0].answer
                assert len(shed) == 4
                for outcome in shed:
                    # The audit point: every wire rejection carries the
                    # machine-readable hint, not just a log line.
                    assert isinstance(outcome.retry_after_ms, int)
                    assert outcome.retry_after_ms >= 1
                    assert not outcome.confident
                assert server.counters["net_shed"] == 4

    run(scenario())


def test_update_over_wire_and_read_only_rejection():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph) as service:
            async with serving(service) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    before = (await client.query(0, 2000)).answer
                    assert not before
                    applied = await client.add_edge(40, 2000)
                    assert applied["applied"]
                    assert applied["version"] == service.watermark
                    assert (await client.query(0, 2000)).answer
                    removed = await client.remove_edge(40, 2000)
                    assert removed["applied"]
            # Read-only (replica-role) servers reject writes loudly.
            async with serving(
                service, read_only=True, role="replica"
            ) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    with pytest.raises(ServerError, match="read-only"):
                        await client.add_edge(1, 2)
                    assert (await client.ping())["role"] == "replica"

    run(scenario())


def test_stats_frame_surfaces_occupancy_and_batch_counters():
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph) as service:
            async with serving(service) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    await client.query_batch([(i, 40) for i in range(12)])
                    frame = await client.stats()
                assert frame["role"] == "primary"
                assert frame["watermark"] == graph.version
                derived = frame["stats"]["derived"]
                counters = frame["stats"]["counters"]
                # The satellite: occupancy, the batch_* family, and the
                # label-tier counters are on the wire, not just in-process.
                assert "word_occupancy" in derived
                # Every batched pair was answered by some tier before
                # a kernel had to run: prefilter, label matrix, or the
                # auto cutover deciding on surviving pairs.
                assert (
                    counters.get("batch_auto_bitparallel", 0)
                    + counters.get("batch_auto_scalar", 0)
                    + counters.get("batch_scalar_fallback", 0)
                    + counters.get("batch_prefilter_hits", 0)
                    + counters.get("label_hits_pos", 0)
                    + counters.get("label_hits_neg", 0)
                    >= 12
                )
                assert (
                    counters.get("label_hits_pos", 0)
                    + counters.get("label_hits_neg", 0)
                    >= 1
                )
                assert frame["stats"]["labels"]["bits"] >= 64
                assert frame["server"]["net_batches"] == 1
                assert frame["server"]["net_connections"] == 1

    run(scenario())


def test_protocol_error_drops_connection_but_not_server():
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(graph) as service:
            async with serving(service) as server:
                # Garbage header: an absurd frame length.
                reader, writer = await asyncio.open_connection(
                    *server.address
                )
                writer.write(b"\xff\xff\xff\xff")
                await writer.drain()
                assert await reader.read() == b""  # server hangs up
                writer.close()
                # The server survives and keeps serving.
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    assert (await client.query(0, 10)).answer
                assert server.counters["net_protocol_errors"] == 1

    run(scenario())


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
def test_replica_follows_primary_and_serves_at_watermark(tmp_path):
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            async with serving(service) as server:
                node = ReplicaNode(
                    *server.address,
                    tmp_path / "replica.wal",
                )
                replica_server = await node.serve()
                runner = asyncio.create_task(node.run())
                try:
                    async with await ReachabilityClient.open(
                        *server.address
                    ) as client:
                        for i in range(5):
                            await client.add_edge(40, 5000 + i)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.watermark == service.watermark
                    assert node.service.graph == service.graph
                    # Reads served by the replica are stamped with the
                    # replication watermark.
                    async with await ReachabilityClient.open(
                        replica_server.host, replica_server.port
                    ) as client:
                        outcome = await client.query(0, 5004)
                        assert outcome.answer
                        assert outcome.version == node.watermark
                finally:
                    node.stop()
                    await runner
                    await node.close()

    run(scenario())


def test_replica_resumes_at_exact_watermark_after_reconnect(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            server = ReachabilityServer(service, port=0)
            await server.start()
            port = server.port
            node = ReplicaNode(
                "127.0.0.1",
                port,
                tmp_path / "replica.wal",
                reconnect_delay_s=0.02,
            )
            runner = asyncio.create_task(node.run())
            try:
                service.add_edge(10, 600)
                await wait_until(lambda: node.watermark >= service.watermark)
                applied_before = node.records_applied
                snapshots_before = node.snapshots_loaded
                # Primary's server dies (service and journal survive).
                await server.stop()
                await wait_until(lambda: not node.connected)
                service.add_edge(10, 601)  # lands while disconnected
                # Server returns on the same port; replica resubscribes
                # at its watermark.
                server = ReachabilityServer(service, port=port)
                await server.start()
                await wait_until(lambda: node.watermark >= service.watermark)
                assert node.service.graph == service.graph
                # Exact resume: only the missed record was applied, the
                # pre-disconnect ones were deduped by version stamp.
                assert node.records_applied == applied_before + 1
                # Resume used the journal stream, not a fresh snapshot.
                assert node.snapshots_loaded == snapshots_before
            finally:
                node.stop()
                await runner
                await node.close()
                await server.stop()

    run(scenario())


def test_replica_bootstraps_from_snapshot_after_compaction(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            service.add_edge(10, 700)
            # Compaction discards the records a fresh replica would need:
            # its subscribe(after=0) must fall back to a full snapshot.
            service.journal.checkpoint(service.graph, tmp_path / "p.ckpt")
            async with serving(service) as server:
                node = ReplicaNode(
                    *server.address,
                    tmp_path / "replica.wal",
                )
                runner = asyncio.create_task(node.run())
                try:
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.snapshots_loaded == 1
                    assert node.service.graph == service.graph
                    # The stream continues past the snapshot.
                    service.add_edge(10, 701)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.service.graph == service.graph
                finally:
                    node.stop()
                    await runner
                    await node.close()

    run(scenario())


def test_replica_survives_primary_compaction_mid_stream(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            async with serving(service) as server:
                node = ReplicaNode(
                    *server.address,
                    tmp_path / "replica.wal",
                )
                runner = asyncio.create_task(node.run())
                try:
                    service.add_edge(10, 800)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    snapshots_before = node.snapshots_loaded
                    # Compact while the feed is live; the tailer follows
                    # the rename without a gap (it is fully caught up).
                    service.journal.checkpoint(
                        service.graph, tmp_path / "p.ckpt"
                    )
                    service.add_edge(10, 801)
                    await wait_until(
                        lambda: node.watermark >= service.watermark
                    )
                    assert node.service.graph == service.graph
                    # A caught-up tailer follows the rename; no snapshot.
                    assert node.snapshots_loaded == snapshots_before
                finally:
                    node.stop()
                    await runner
                    await node.close()

    run(scenario())


def test_promote_after_primary_death_matches_bfs_oracle(tmp_path):
    """Kill-the-primary failover: the replica promotes through
    ``recover()`` on its local journal and answers exactly at its
    watermark — zero mismatches against a BFS oracle."""

    async def scenario():
        graph = chain_graph(20)
        service = ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        )
        server = await ReachabilityServer(service, port=0).start()
        node = ReplicaNode(
            *server.address,
            tmp_path / "replica.wal",
        )
        runner = asyncio.create_task(node.run())
        async with await ReachabilityClient.open(*server.address) as client:
            for i in range(10):
                await client.add_edge(20, 900 + i)
            await client.remove_edge(0, 1)
        await wait_until(lambda: node.watermark >= service.watermark)
        node.stop()
        await runner
        # Abrupt primary death; the replica's local journal is now the
        # only authority.
        await server.stop()
        oracle = service.graph.copy()
        watermark = node.watermark
        service.close()
        promoted = node.promote()
        try:
            assert node.promoted
            assert promoted.watermark == watermark == oracle.version
            pairs = [(0, 909), (2, 909), (0, 1), (1, 20), (20, 905)]
            pairs += [(i, 20) for i in range(0, 20, 3)]
            mismatches = [
                (s, t)
                for s, t in pairs
                if promoted.query(s, t).answer != is_reachable_bfs(oracle, s, t)
            ]
            assert mismatches == []
            # The promoted node accepts writes again.
            effect = promoted.add_edge(909, 0)
            assert effect.changed
        finally:
            await node.close()

    run(scenario())


def test_a_replica_journal_with_no_base_is_moved_aside(tmp_path):
    """A crash inside the snapshot bootstrap leaves a local journal that
    opens past version 0 with no checkpoint. The node keeps it aside and
    starts empty at watermark 0, so the primary resends what it needs,
    instead of serving an empty graph at the journal's version; promoting
    on such a journal raises."""
    path = tmp_path / "replica.wal"
    graph = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 3)])
    graph.restore_version(9)
    ReachabilityService(graph, journal=path).close()
    kept = path.read_text()
    node = ReplicaNode("127.0.0.1", 1, path)
    aside = tmp_path / "replica.wal.unrecoverable"
    try:
        assert node.watermark == 0 and node.service.graph.num_edges == 0
        assert aside.read_text() == kept
    finally:
        node.service.close()
    aside.replace(path)
    with pytest.raises(JournalReplayError, match="replica.wal"):
        node.promote()


def test_promoted_replica_server_flips_writable(tmp_path):
    async def scenario():
        graph = chain_graph(10)
        with ReachabilityService(
            graph, journal=tmp_path / "primary.wal"
        ) as service:
            server = await ReachabilityServer(service, port=0).start()
            node = ReplicaNode(
                *server.address,
                tmp_path / "replica.wal",
            )
            replica_server = await node.serve()
            runner = asyncio.create_task(node.run())
            await wait_until(lambda: node.watermark >= service.watermark)
            node.stop()
            await runner
            await server.stop()
        node.promote()
        try:
            async with await ReachabilityClient.open(
                replica_server.host, replica_server.port
            ) as client:
                assert (await client.ping())["role"] == "primary"
                applied = await client.add_edge(10, 999)
                assert applied["applied"]
                assert (await client.query(0, 999)).answer
        finally:
            await node.close()

    run(scenario())


# ----------------------------------------------------------------------
# The frame pump: one read, one wave, one write
# ----------------------------------------------------------------------
class RawClient(asyncio.Protocol):
    """A bare socket: sends what it is told, splits what comes back, and
    counts the bursts (``data_received`` calls) it arrived in."""

    def __init__(self, read: bool = True) -> None:
        self.read = read
        self.transport = None
        self.replies = []
        self.bursts = 0
        self._rest = b""
        self.lost = asyncio.get_running_loop().create_future()

    @classmethod
    async def open(cls, server, sock=None, **kwargs) -> "RawClient":
        loop = asyncio.get_running_loop()
        where = {"sock": sock} if sock else {"host": server.host, "port": server.port}
        _, client = await loop.create_connection(lambda: cls(**kwargs), **where)
        return client

    def connection_made(self, transport) -> None:
        self.transport = transport
        if not self.read:
            transport.pause_reading()

    def data_received(self, data: bytes) -> None:
        self.bursts += 1
        frames, self._rest = protocol.split_frames(self._rest + data)
        self.replies.extend(frames)

    def connection_lost(self, exc) -> None:
        self.lost.set_result(exc)

    def by_id(self) -> dict:
        assert len({r["id"] for r in self.replies}) == len(self.replies)
        return {r["id"]: r for r in self.replies}


def query_frames(pairs, **extra) -> bytes:
    return b"".join(
        protocol.encode({"type": "query", "id": i, "s": s, "t": t, **extra})
        for i, (s, t) in enumerate(pairs)
    )


@pytest.mark.parametrize("max_wave", [256, 16])
def test_one_burst_of_queries_costs_one_write_per_wave(max_wave):
    async def scenario():
        graph = chain_graph()
        pairs = [(i % 40, 40) for i in range(32)] + [(0, 1000 + i) for i in range(32)]
        with ReachabilityService(graph) as service:
            async with serving(service, max_wave=max_wave) as server:
                raw = await RawClient.open(server)
                raw.transport.write(query_frames(pairs))  # one write
                await wait_until(lambda: len(raw.replies) == len(pairs))
                replies = raw.by_id()
                for i, (s, t) in enumerate(pairs):
                    assert replies[i]["type"] == "result"
                    assert (replies[i]["s"], replies[i]["t"]) == (s, t)
                    assert replies[i]["answer"] == is_reachable_bfs(graph, s, t)
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    counters = (await client.stats())["server"]
                raw.transport.abort()
        waves = -(-len(pairs) // max_wave)
        # The burst's read, plus the stats request's.
        assert counters["net_reads"] <= 3
        assert counters["net_writes"] <= waves + 1
        assert raw.bursts <= waves + 1
        assert counters["net_coalesced_queries"] == len(pairs)
        assert counters["net_queries"] == counters["net_requests"] - 1 == 64
        ratio = counters["net_coalesced_queries"] / counters["net_writes"]
        assert ratio >= min(max_wave, len(pairs)) / 2

    run(scenario())


def test_a_lone_query_is_one_read_one_wave_one_write():
    async def scenario():
        with ReachabilityService(chain_graph()) as service:
            async with serving(service) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as client:
                    assert (await client.query(0, 40)).answer
                    counters = (await client.stats())["server"]
        assert counters["net_coalesced_queries"] == counters["net_writes"] == 1
        assert counters["net_reads"] == 2  # the query, the stats request

    run(scenario())


def test_malformed_query_in_a_burst_fails_alone():
    async def scenario():
        graph = chain_graph()
        frames = [
            {"type": "query", "id": "a", "s": 0, "t": 40},
            {"type": "query", "id": "b", "s": 0},  # no target
            {"type": "query", "id": "c", "s": "zero", "t": 40},
            {"type": "query", "id": "d", "s": 0, "t": 1040, "deadline_ms": "soon"},
            {"type": "nonsense", "id": "e"},
            {"type": "query", "id": "f", "s": 40, "t": 0},
        ]
        with ReachabilityService(graph) as service:
            async with serving(service) as server:
                raw = await RawClient.open(server)
                raw.transport.write(b"".join(map(protocol.encode, frames)))
                await wait_until(lambda: len(raw.replies) == len(frames))
                replies = raw.by_id()
                raw.transport.abort()
                assert replies["a"]["type"] == "result" and replies["a"]["answer"]
                assert replies["f"]["type"] == "result"
                assert not replies["f"]["answer"]
                for mid in "bcd":
                    assert replies[mid]["type"] == "error"
                    assert replies[mid]["error"]
                assert replies["e"]["error"] == "unknown-type:nonsense"
                assert server.counters["net_request_errors"] == 3
                assert server.counters["net_queries"] == 5
                assert server.counters["net_coalesced_queries"] == 2
                assert "net_protocol_errors" not in server.counters

    run(scenario())


def test_half_close_delivers_every_reply_then_closes():
    async def scenario():
        graph = chain_graph()
        pairs = [(i, 40) for i in range(32)]
        with ReachabilityService(graph) as service:
            # The gathering window keeps the queries in flight past EOF.
            async with serving(service, coalesce_delay_s=0.05) as server:
                raw = await RawClient.open(server)
                raw.transport.write(query_frames(pairs))
                raw.transport.write(protocol.encode({"type": "ping", "id": "p"}))
                raw.transport.write_eof()
                assert await raw.lost is None  # server closed, cleanly
                replies = raw.by_id()
                assert replies.pop("p")["type"] == "pong"
                assert sorted(replies) == list(range(32))
                assert all(r["answer"] for r in replies.values())
                assert "net_protocol_errors" not in server.counters
                await wait_until(lambda: not server._connections)

                # EOF inside a frame is a truncated stream.
                raw = await RawClient.open(server)
                raw.transport.write(query_frames(pairs[:2])[:-5])
                raw.transport.write_eof()
                await raw.lost
                assert [r["id"] for r in raw.replies] == [0]
                assert server.counters["net_protocol_errors"] == 1

    run(scenario())


def test_client_that_stops_reading_stops_being_read():
    async def scenario():
        graph = chain_graph()
        half = 4000
        with ReachabilityService(graph) as service:
            async with serving(service) as server:
                # Small kernel buffers both ways on the reply direction,
                # so "not reading" shows after kilobytes, not megabytes.
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, server.address
                )
                raw = await RawClient.open(server, sock=sock, read=False)
                await wait_until(lambda: server._connections)
                (conn,) = server._connections
                conn.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 32768
                )

                def observed():
                    return (
                        server.counters["net_queries"],
                        conn.transport.get_write_buffer_size(),
                    )

                # More replies than the buffers hold: writing pauses.
                raw.transport.write(query_frames([(0, 40)] * half))
                await wait_until(
                    lambda: not conn._writable.is_set()
                    and not server._inflight
                )
                before = observed()
                assert before[0] == half and before[1] > 64 * 1024
                # From here on the socket is not read: these requests
                # stay in the kernel, the write buffer stays where it is...
                raw.transport.write(query_frames([(0, 40)] * half))
                # ...and other connections are served as ever.
                async with await ReachabilityClient.open(
                    *server.address
                ) as other:
                    assert (await other.query(0, 40)).answer
                    await asyncio.sleep(0.2)
                    assert (await other.query(40, 0)).answer is False
                assert observed() == (before[0] + 2, before[1])
                # The client drains; the server picks the socket up again.
                raw.transport.resume_reading()
                await wait_until(lambda: len(raw.replies) == 2 * half)
                assert all(r["answer"] for r in raw.replies)
                assert conn._writable.is_set()
                raw.transport.abort()

    run(scenario())


def test_stop_answers_queued_and_executing_queries_server_stopped():
    async def scenario():
        graph = chain_graph()
        release = threading.Event()
        with ReachabilityService(graph) as service:
            real_batch = service.query_batch

            def stuck_batch(pairs, *args, **kwargs):
                release.wait(10.0)
                return real_batch(pairs, *args, **kwargs)

            service.query_batch = stuck_batch
            server = await ReachabilityServer(service, port=0, max_wave=4).start()
            try:
                raw = await RawClient.open(server)
                raw.transport.write(
                    b"".join(
                        protocol.encode(
                            {"type": "query", "id": i, "s": i, "t": 40}
                            | ({"deadline_ms": 5000} if i % 2 else {})
                        )
                        for i in range(12)
                    )
                )
                # Of the 4 drained, the 2 with a deadline are executing and
                # the 2 without wait their turn; 8 queries are queued.
                await wait_until(lambda: len(server._queue) == 8)
                await server.stop()
                await raw.lost
            finally:
                release.set()
            replies = raw.by_id()
            assert sorted(replies) == list(range(12))
            for reply in replies.values():
                assert reply["type"] == "result" and reply["via"] == "error"
                assert reply["detail"] == "server-stopped"
                assert not reply["confident"]

    run(scenario())


def test_shed_at_enqueue_carries_retry_after_in_the_same_burst():
    async def scenario():
        with ReachabilityService(
            chain_graph(), max_pending=3
        ) as service:
            async with serving(service) as server:
                raw = await RawClient.open(server)
                raw.transport.write(query_frames([(0, 40)] * 8))
                await wait_until(lambda: len(raw.replies) == 8)
                raw.transport.abort()
                served = [r for r in raw.replies if r["via"] != "shed"]
                shed = [r for r in raw.replies if r["via"] == "shed"]
                assert len(served) == 3 and all(r["answer"] for r in served)
                assert len(shed) == server.counters["net_shed"] == 5
                for reply in shed:
                    assert isinstance(reply["retry_after_ms"], int)
                    assert reply["retry_after_ms"] >= 1
                    assert not reply["confident"]

    run(scenario())


def test_large_frame_is_buffered_in_linear_time(monkeypatch):
    split_bytes = 0
    real_split = protocol.split_frames

    def counting_split(buffer):
        nonlocal split_bytes
        split_bytes += len(buffer)
        return real_split(buffer)

    monkeypatch.setattr(protocol, "split_frames", counting_split)
    frame = protocol.encode(
        {
            "type": "batch",
            "id": 1,
            "pairs": [[0, 40], [40, 0]],
            "padding": "x" * (8 << 20),
        }
    )

    async def scenario():
        with ReachabilityService(chain_graph()) as service:
            async with serving(service) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                for at in range(0, len(frame), 16384):
                    writer.write(frame[at : at + 16384])
                    await writer.drain()
                reply = await protocol.read_frame(reader)
                writer.close()
                assert reply["type"] == "batch-result" and reply["id"] == 1
                assert [o["answer"] for o in reply["outcomes"]] == [True, False]
                # It did arrive in pieces, and no byte of it was joined or
                # scanned more than a constant number of times.
                assert server.counters["net_reads"] >= 32
                assert split_bytes <= 3 * len(frame)

    run(scenario())


def test_one_clients_deadline_does_not_degrade_anothers_query(monkeypatch):
    monkeypatch.setattr(engine, "DEGRADE_BUDGET", 10)

    async def scenario():
        # A long path, no labels, a tiny degraded budget: a search that
        # runs under an expired deadline answers confident=False.
        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(199)])
        with ReachabilityService(
            graph,
            num_supportive=0,
            use_labels=False,
        ) as service:
            # The gathering window puts both connections in one drain.
            async with serving(service, coalesce_delay_s=0.05) as server:
                async with await ReachabilityClient.open(
                    *server.address
                ) as hurried, await ReachabilityClient.open(
                    *server.address
                ) as patient:
                    rushed, waited = await asyncio.gather(
                        asyncio.gather(
                            *[
                                hurried.query(i, 199, deadline_ms=0.0001)
                                for i in range(8)
                            ]
                        ),
                        asyncio.gather(
                            *[patient.query(i, 198) for i in range(8)]
                        ),
                    )
                assert all(o.answer and o.confident for o in waited)
                assert all(o.via != "degraded" for o in waited)
                assert any(not o.confident for o in rushed)
                # One drain, two deadline classes.
                assert server.counters["net_coalesced_queries"] == 16
                assert server.counters["net_coalesced_waves"] == 2

    run(scenario())


def test_deadline_free_query_is_not_starved_by_a_timed_backlog():
    async def scenario():
        waves = []
        with ReachabilityService(chain_graph()) as service:
            real_batch = service.query_batch

            def recording_batch(pairs, *args, **kwargs):
                waves.append(list(pairs))
                return real_batch(pairs, *args, **kwargs)

            service.query_batch = recording_batch
            # The gathering window queues everything before the first drain.
            async with serving(
                service, max_wave=8, coalesce_delay_s=0.1
            ) as server:
                patient = await RawClient.open(server)
                hurried = await RawClient.open(server)
                patient.transport.write(query_frames([(0, 40)]))
                await wait_until(lambda: len(server._queue) == 1)
                hurried.transport.write(
                    query_frames([(1, 40)] * 200, deadline_ms=5000)
                )
                await wait_until(lambda: len(hurried.replies) == 200)
                assert [r["answer"] for r in patient.replies] == [True]
                assert all(r["answer"] for r in hurried.replies)
                patient.transport.abort()
                hurried.transport.abort()
        # Sent first, drained first: it runs right after the timed pairs
        # it was drained with, not after the whole backlog.
        assert waves.index([(0, 40)]) == 1
        # 201 queries are 26 drains of at most 8; only the first is split.
        assert len(waves[0]) == 7 and len(waves) == 27

    run(scenario())


def test_frames_ahead_of_a_malformed_frame_are_served():
    async def scenario():
        with ReachabilityService(chain_graph()) as service:
            async with serving(service) as server:
                raw = await RawClient.open(server)
                raw.transport.write(  # one write, so one read
                    query_frames([(0, 40), (40, 0)])
                    + protocol.encode({"type": "ping", "id": "p"})
                    + (9).to_bytes(4, "big") + b"{not json"
                    + protocol.encode({"type": "ping", "id": "never"})
                )
                assert await raw.lost is None  # answered, then hung up on
                replies = raw.by_id()
                assert sorted(replies, key=str) == [0, 1, "p"]
                assert replies[0]["answer"] and not replies[1]["answer"]
                assert replies["p"]["type"] == "pong"
                assert server.counters["net_protocol_errors"] == 1
                assert server.counters["net_requests"] == 3

    run(scenario())


# ----------------------------------------------------------------------
# Vertex ids on the wire are JSON integers
# ----------------------------------------------------------------------
#: Ids ``int()`` would read as vertex 4, 5 and 1.
NON_INTEGER_IDS = pytest.mark.parametrize(
    "bad", [4.5, "5", True], ids=["float", "string", "bool"]
)


async def _exchange(service, frames):
    """Send ``frames`` in one write: the replies by id, and the server's
    counters."""
    async with serving(service) as server:
        raw = await RawClient.open(server)
        raw.transport.write(b"".join(map(protocol.encode, frames)))
        await wait_until(lambda: len(raw.replies) == len(frames))
        raw.transport.abort()
        return raw.by_id(), dict(server.counters)


@NON_INTEGER_IDS
def test_query_frame_ids_must_be_integers(bad):
    async def scenario():
        with ReachabilityService(chain_graph()) as service:
            return await _exchange(service, [
                {"type": "query", "id": "s", "s": bad, "t": 40},
                {"type": "query", "id": "t", "s": 0, "t": bad},
            ])

    replies, counters = run(scenario())
    assert [replies[mid]["type"] for mid in "st"] == [protocol.ERROR] * 2
    assert "net_coalesced_queries" not in counters


@NON_INTEGER_IDS
def test_batch_frame_ids_must_be_integers(bad):
    async def scenario():
        with ReachabilityService(chain_graph()) as service:
            return await _exchange(service, [
                {"type": "batch", "id": "bad", "pairs": [[0, 40], [bad, 40]]},
                {"type": "batch", "id": "ok", "pairs": [[0, 40], [4, 40]]},
            ])

    replies, _ = run(scenario())
    assert replies["bad"]["type"] == protocol.ERROR
    assert replies["ok"]["type"] == protocol.BATCH_RESULT


@NON_INTEGER_IDS
def test_update_frame_ids_must_be_integers(bad, tmp_path):
    async def scenario():
        graph = chain_graph()
        with ReachabilityService(graph, journal=tmp_path / "wal.jsonl") as service:
            before = graph.version
            replies, _ = await _exchange(service, [
                {"type": "update", "id": "u", "op": "+", "u": bad, "v": 7},
                {"type": "update", "id": "v", "op": "+", "u": 7, "v": bad},
            ])
            return replies, before, graph.version, service.journal.records_written

    replies, before, after, journaled = run(scenario())
    assert [replies[mid]["type"] for mid in "uv"] == [protocol.ERROR] * 2
    assert after == before and journaled == 0


def test_a_non_integer_query_in_a_burst_fails_alone():
    async def scenario():
        with ReachabilityService(chain_graph()) as service:
            return await _exchange(service, [
                {"type": "query", "id": "a", "s": 0, "t": 40},
                {"type": "query", "id": "b", "s": 4.5, "t": 40},
                {"type": "query", "id": "c", "s": 40, "t": 0},
            ])

    replies, counters = run(scenario())
    assert replies["a"]["answer"] and not replies["c"]["answer"]
    assert replies["b"]["type"] == protocol.ERROR
    assert counters["net_request_errors"] == 1
    assert counters["net_coalesced_queries"] == 2


# ----------------------------------------------------------------------
# A deadline on the wire is a finite, non-negative JSON number
# ----------------------------------------------------------------------
#: Deadlines ``float()`` would read as -1 ms, 1 ms, 5 ms and NaN; a wave
#: runs under the ``min()`` of its deadlines, which each would decide.
BAD_DEADLINES = pytest.mark.parametrize(
    "bad", [-1, True, "5", float("nan")], ids=["negative", "bool", "string", "nan"]
)


def _search_service():
    """No supportive vertices and no labels: a chain pair is searched."""
    return ReachabilityService(chain_graph(), num_supportive=0, use_labels=False)


@BAD_DEADLINES
def test_query_frame_deadline_must_be_a_non_negative_number(bad):
    async def scenario():
        with _search_service() as service:
            return await _exchange(service, [
                {"type": "query", "id": "bad", "s": 0, "t": 40, "deadline_ms": bad},
                {"type": "query", "id": "ok", "s": 0, "t": 40, "deadline_ms": 60000},
            ])

    replies, counters = run(scenario())
    assert replies["bad"]["type"] == protocol.ERROR
    assert "deadline_ms" in replies["bad"]["error"]
    ok = replies["ok"]
    assert (ok["type"], ok["answer"], ok["via"]) == (protocol.RESULT, True, "engine")
    assert counters["net_coalesced_queries"] == 1


@BAD_DEADLINES
def test_batch_frame_deadline_must_be_a_non_negative_number(bad):
    async def scenario():
        with _search_service() as service:
            return await _exchange(service, [
                {"type": "batch", "id": "bad", "pairs": [[0, 40]], "deadline_ms": bad},
                {"type": "batch", "id": "ok", "pairs": [[0, 40]], "deadline_ms": 60000},
            ])

    replies, _ = run(scenario())
    assert replies["bad"]["type"] == protocol.ERROR
    assert "deadline_ms" in replies["bad"]["error"]
    assert replies["ok"]["type"] == protocol.BATCH_RESULT
    [ok] = replies["ok"]["outcomes"]
    assert (ok["answer"], ok["via"]) == (True, "engine")


def test_a_bad_deadline_in_a_burst_fails_alone():
    """The bad deadlines fail alone; the timed query keeps its own
    deadline, and 0 and an absent key both mean none (one untimed wave)."""
    nan = float("nan")

    async def scenario():
        with _search_service() as service:
            return await _exchange(service, [
                {"type": "query", "id": "a", "s": 0, "t": 40, "deadline_ms": nan},
                {"type": "query", "id": "b", "s": 1, "t": 40},
                {"type": "query", "id": "c", "s": 2, "t": 40, "deadline_ms": -1},
                {"type": "query", "id": "d", "s": 3, "t": 40, "deadline_ms": 60000},
                {"type": "query", "id": "e", "s": 4, "t": 40, "deadline_ms": 0},
            ])

    replies, counters = run(scenario())
    assert [replies[mid]["type"] for mid in "ac"] == [protocol.ERROR] * 2
    assert [(replies[mid]["answer"], replies[mid]["via"]) for mid in "bde"] == [
        (True, "engine")
    ] * 3
    assert counters["net_request_errors"] == 2
    assert counters["net_coalesced_waves"] == 2  # {d} timed, {b, e} not
    assert counters["net_coalesced_queries"] == 3
