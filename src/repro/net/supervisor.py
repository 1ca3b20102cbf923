"""Supervised failover: heartbeats, leases, watermark-ordered election.

:class:`ClusterSupervisor` is the control plane over one primary
:class:`~repro.net.server.ReachabilityServer` and a set of in-process
:class:`~repro.net.replica.ReplicaNode` followers. Three protocols, all
riding the existing wire frames:

* **Heartbeats.** Every ``heartbeat_interval_s`` the supervisor opens a
  short-lived connection to the primary and exchanges a ``stats`` frame
  (role + watermark + full service snapshot — the health check sees what
  an operator would). Connection failure, timeout, or a frame error is
  one *miss*; ``heartbeat_misses`` consecutive misses declare the
  primary dead. Replica serve endpoints are probed the same way on each
  beat, feeding the published endpoint map.
* **Leases (the split-brain guard).** Each successful heartbeat renews
  an epoch-stamped write lease (``lease`` frame) with TTL
  ``heartbeat_misses * heartbeat_interval_s``. A primary partitioned
  from the supervisor stops hearing renewals and demotes itself to
  read-only when the last grant expires; the supervisor *fences* every
  failover by waiting out one full TTL before promoting, so the old
  primary is provably read-only before the new one is writable —
  exactly one writable primary at any instant. Promotion bumps the
  epoch, and servers reject grants at stale epochs, so a lagging
  supervisor cannot resurrect a demoted primary.
* **Election.** Failover picks the most-caught-up replica —
  watermark-ordered, ties to the earliest registered — stops its
  subscription loop, and promotes it through the standard
  ``recover()``/``promote()`` path (crash recovery over its local
  journal, never trust of live memory). Losing replicas are repointed:
  they re-subscribe to the winner at their own watermark, and
  version-stamp dedup makes the hand-off exact.

The supervisor also serves a tiny control endpoint (same length-prefixed
framing) answering ``endpoints`` frames with the current
``{epoch, primary, replicas}`` map — the discovery surface
:class:`~repro.net.client.FailoverClient` reconnects through — plus
``ping`` and ``stats`` for operators.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Dict, List, Optional, Tuple

from repro.net import protocol
from repro.net.client import ConnectionLost, ReachabilityClient, ServerError
from repro.net.replica import ReplicaNode

Address = Tuple[str, int]


class _ReplicaEntry:
    """One supervised replica: the node, its run task, its serve addr."""

    def __init__(self, node: ReplicaNode, task: asyncio.Task) -> None:
        self.node = node
        self.task = task
        self.healthy = False
        self.last_watermark = -1

    @property
    def serve_address(self) -> Optional[Address]:
        if self.node.server is None:
            return None
        return self.node.server.address


class ClusterSupervisor:
    """Heartbeat, lease, and auto-promote one primary + N replicas.

    Parameters
    ----------
    primary_host, primary_port:
        The primary data server's address.
    heartbeat_interval_s:
        Beat period; also the per-beat I/O timeout.
    heartbeat_misses:
        Consecutive misses before the primary is declared dead. The
        write-lease TTL granted with each beat, and waited out (fencing)
        before any promotion, is ``heartbeat_misses *
        heartbeat_interval_s`` (:attr:`lease_ttl_s`): the lease dies at
        about the same moment the miss threshold trips.
    """

    def __init__(
        self,
        primary_host: str,
        primary_port: int,
        *,
        heartbeat_interval_s: float = 0.1,
        heartbeat_misses: int = 3,
    ) -> None:
        if heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        self.primary: Address = (primary_host, primary_port)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_misses = heartbeat_misses
        self.lease_ttl_s = heartbeat_misses * heartbeat_interval_s
        self.epoch = 1
        self.misses = 0
        self.primary_watermark = -1
        self.counters: Dict[str, int] = {}
        self.log: List[str] = []
        self.last_failover: Optional[Dict[str, object]] = None
        #: Chaos hook: ``True`` makes every heartbeat to the primary fail
        #: without touching the socket — a supervisor↔primary partition.
        self.partition_primary = False
        self._replicas: List[_ReplicaEntry] = []
        self._stop = asyncio.Event()
        self._monitor_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.host = "127.0.0.1"
        self.port = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "ClusterSupervisor":
        """Start the control endpoint and the heartbeat monitor."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.host = host
        self.port = self._server.sockets[0].getsockname()[1]
        self._monitor_task = asyncio.create_task(self._monitor())
        self._log(f"supervising primary {self.primary[0]}:{self.primary[1]}")
        return self

    def add_replica(self, node: ReplicaNode) -> None:
        """Supervise ``node`` (its run loop becomes a supervisor task).

        Call after ``node.serve()`` so the endpoint map can publish its
        read address.
        """
        task = asyncio.get_running_loop().create_task(node.run())
        self._replicas.append(_ReplicaEntry(node, task))

    async def stop(self) -> None:
        """Stop monitoring and the supervised replica run loops."""
        self._stop.set()
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for entry in self._replicas:
            entry.node.stop()
            entry.task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await entry.task

    @property
    def address(self) -> Address:
        return (self.host, self.port)

    @property
    def replicas(self) -> List[ReplicaNode]:
        return [entry.node for entry in self._replicas]

    def _incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def _log(self, line: str) -> None:
        self.log.append(f"[{time.strftime('%H:%M:%S')}] epoch={self.epoch} {line}")

    # ------------------------------------------------------------------
    # Heartbeats + leases
    # ------------------------------------------------------------------
    async def _monitor(self) -> None:
        while not self._stop.is_set():
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._stop.wait(), self.heartbeat_interval_s
                )
                return  # stop requested
            alive = await self._beat_primary()
            await self._beat_replicas()
            if alive:
                self.misses = 0
                continue
            self.misses += 1
            self._incr("heartbeat_misses")
            if self.misses >= self.heartbeat_misses:
                await self._failover()
                self.misses = 0

    async def _beat_primary(self) -> bool:
        """One heartbeat: STATS health check + lease renewal."""
        self._incr("heartbeats")
        if self.partition_primary:
            return False
        timeout = max(self.heartbeat_interval_s, 0.05)
        try:
            client = await asyncio.wait_for(
                ReachabilityClient.open(*self.primary), timeout
            )
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            reply = await asyncio.wait_for(client.stats(), timeout * 10)
            self.primary_watermark = int(reply.get("watermark", -1))
            lease = await asyncio.wait_for(
                self._grant_lease(client, reply.get("role")), timeout * 10
            )
            return bool(lease.get("granted"))
        except (
            OSError,
            ConnectionLost,
            ServerError,
            asyncio.TimeoutError,
        ):
            return False
        finally:
            await client.close()

    async def _grant_lease(
        self, client: ReachabilityClient, role: Optional[str]
    ) -> dict:
        """Renew the primary's lease; heal a spurious self-demotion.

        A primary that demoted itself while we still consider it primary
        (a supervisor stall longer than the TTL, not a failover) is
        re-promoted by granting at a *bumped* epoch — the server only
        honors a regrant that proves it is fresher than the demotion.
        """
        ttl_ms = self.lease_ttl_s * 1000.0
        if role == "demoted":
            self.epoch += 1
            self._incr("lease_regrants")
            self._log("primary self-demoted under a live supervisor; regranting")
        lease = await client.lease(self.epoch, ttl_ms)
        if not lease.get("granted") and lease.get("role") == "demoted":
            self.epoch += 1
            self._incr("lease_regrants")
            lease = await client.lease(self.epoch, ttl_ms)
        self._incr("leases_granted" if lease.get("granted") else "leases_rejected")
        return lease

    async def _beat_replicas(self) -> None:
        for entry in self._replicas:
            if entry.node.promoted:
                continue
            entry.last_watermark = entry.node.watermark
            addr = entry.serve_address
            if addr is None:
                entry.healthy = entry.node.connected
                continue
            timeout = max(self.heartbeat_interval_s, 0.05)
            try:
                client = await asyncio.wait_for(
                    ReachabilityClient.open(*addr), timeout
                )
            except (OSError, asyncio.TimeoutError):
                entry.healthy = False
                self._incr("replica_misses")
                continue
            try:
                reply = await asyncio.wait_for(client.ping(), timeout * 10)
                entry.last_watermark = int(reply.get("watermark", -1))
                entry.healthy = True
            except (
                OSError,
                ConnectionLost,
                ServerError,
                asyncio.TimeoutError,
            ):
                entry.healthy = False
                self._incr("replica_misses")
            finally:
                await client.close()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    async def _failover(self) -> None:
        started = time.perf_counter()
        candidates = [e for e in self._replicas if not e.node.promoted]
        if not candidates:
            self._incr("failovers_without_candidate")
            self._log("primary dead but no replica available to promote")
            return
        self._incr("failovers")
        self._log(
            f"primary {self.primary[0]}:{self.primary[1]} declared dead "
            f"after {self.misses} missed beats; fencing {self.lease_ttl_s}s"
        )
        # Fencing: the old primary's last lease grant was at most one
        # beat before the first miss; after a full TTL from *now* it has
        # either demoted itself or is truly dead. Only then may a new
        # primary become writable.
        await asyncio.sleep(self.lease_ttl_s)
        # Watermark-ordered election, ties to the earliest registered.
        winner = max(
            enumerate(candidates), key=lambda pair: (pair[1].node.watermark, -pair[0])
        )[1]
        self.epoch += 1
        winner.node.stop()
        winner.task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await winner.task
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, winner.node.promote, self.epoch)
        new_primary = winner.serve_address
        if new_primary is None:  # pragma: no cover - serve() not called
            self._log("winner has no serve address; endpoint map keeps none")
        else:
            self.primary = new_primary
        for entry in self._replicas:
            if entry is winner or entry.node.promoted:
                continue
            entry.node.repoint(*self.primary)
            self._incr("replicas_repointed")
        promote_s = time.perf_counter() - started
        self.last_failover = {
            "epoch": self.epoch,
            "promote_s": promote_s,
            "winner": list(self.primary),
            "winner_watermark": winner.node.watermark,
        }
        self._log(
            f"promoted {self.primary[0]}:{self.primary[1]} at watermark "
            f"{winner.node.watermark} in {promote_s:.3f}s"
        )

    # ------------------------------------------------------------------
    # The control endpoint
    # ------------------------------------------------------------------
    def endpoint_map(self) -> Dict[str, object]:
        """The published map failover clients reconnect through."""
        replicas = [
            list(entry.serve_address)
            for entry in self._replicas
            if not entry.node.promoted and entry.serve_address is not None
        ]
        return {
            "epoch": self.epoch,
            "primary": list(self.primary),
            "replicas": replicas,
        }

    def stats(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "primary": list(self.primary),
            "primary_watermark": self.primary_watermark,
            "misses": self.misses,
            "replicas": [
                {
                    "address": list(e.serve_address) if e.serve_address else None,
                    "healthy": e.healthy,
                    "watermark": e.last_watermark,
                    "promoted": e.node.promoted,
                }
                for e in self._replicas
            ],
            "counters": dict(self.counters),
            "last_failover": self.last_failover,
        }

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    message = await protocol.read_frame(reader)
                except protocol.ProtocolError:
                    break
                if message is None:
                    break
                mid = message.get("id")
                mtype = message.get("type")
                if mtype == protocol.ENDPOINTS:
                    reply = {
                        "type": protocol.ENDPOINTS_RESULT,
                        "id": mid,
                        **self.endpoint_map(),
                    }
                elif mtype == protocol.PING:
                    reply = {
                        "type": protocol.PONG,
                        "id": mid,
                        "role": "supervisor",
                        "watermark": self.primary_watermark,
                        "epoch": self.epoch,
                    }
                elif mtype == protocol.STATS:
                    reply = {
                        "type": protocol.STATS_RESULT,
                        "id": mid,
                        "role": "supervisor",
                        "stats": self.stats(),
                        "log": self.log[-50:],
                    }
                else:
                    reply = {
                        "type": protocol.ERROR,
                        "id": mid,
                        "error": f"unknown-type:{mtype}",
                    }
                await protocol.send(writer, reply)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
