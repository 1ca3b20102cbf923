"""Journal-shipping replication: the replica side.

A :class:`ReplicaNode` owns a full local :class:`ReachabilityService`
(graph, pruner, cache, write-ahead journal) and keeps it converged with
a primary by subscribing to the primary's journal stream:

* **Continuous replay.** Every shipped record goes through
  :meth:`~repro.service.engine.ReachabilityService.apply_journal_record`
  — the same write-locked, version-verified path the primary's own
  updates take, with pruner maintenance and local re-journaling
  included. The replica's graph version *is* the replication watermark:
  reads served from the replica are stamped with it, so clients always
  know which primary snapshot answered.
* **Exact resume.** The local journal makes the watermark durable.
  After a disconnect (or a replica restart, via ``recover()`` on the
  local journal), the replica resubscribes with
  ``after=service.watermark`` and the primary's tailer dedups by
  version stamp — no record is applied twice, none is skipped.
* **Snapshot fallback.** If the primary compacted away the records the
  replica needs (``JournalGap`` server-side), the ``subscribed`` reply
  carries a full graph snapshot; the replica rebuilds from it, anchors
  its local journal with a checkpoint at the snapshot version, and
  streams on from there.
* **Promote on failure.** When the primary dies, :meth:`promote`
  rebuilds the serving state through the standard crash-recovery path —
  :meth:`ReachabilityService.recover` over the replica's *local*
  journal — and flips the attached server writable. Promotion reuses
  recovery rather than trusting the live in-memory state: whatever a
  failover brings up is, by construction, exactly what a post-crash
  restart would bring up.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.graph.digraph import DynamicDiGraph
from repro.graph.journal import JournalReplayError
from repro.net.client import ConnectionLost, ReachabilityClient, ServerError
from repro.net.server import ReachabilityServer
from repro.service.engine import ReachabilityService
from repro.service.faults import Backoff


class ReplicaNode:
    """One replica: local service + subscription loop + promotion.

    Parameters
    ----------
    primary_host, primary_port:
        Where the primary's :class:`ReachabilityServer` listens.
    journal_path:
        The replica's *local* write-ahead journal. If it already holds
        records (a replica restart), the service is rebuilt from it via
        ``recover()`` and the subscription resumes at its watermark. A
        journal that cannot be replayed (``JournalReplayError``: no
        base, or an unreadable checkpoint) is moved aside to
        ``<journal_path>.unrecoverable`` and the node starts empty.
    service_kwargs:
        Forwarded to every :class:`ReachabilityService` this node
        constructs (initial, snapshot bootstrap, promotion).
    reconnect_delay_s:
        *Base* backoff between connection attempts to the primary. Each
        consecutive failure doubles the (jittered) delay up to
        ``reconnect_delay_max_s``; a successful subscribe resets it —
        a dead primary is probed gently, a blip reconnects fast.
    reconnect_delay_max_s:
        Backoff cap.
    seed:
        Seeds the backoff jitter (kept deterministic for tests).
    """

    def __init__(
        self,
        primary_host: str,
        primary_port: int,
        journal_path: Union[str, Path],
        *,
        service_kwargs: Optional[Dict] = None,
        reconnect_delay_s: float = 0.1,
        reconnect_delay_max_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.journal_path = Path(journal_path)
        self.checkpoint_path = self.journal_path.with_suffix(".ckpt")
        self._service_kwargs = dict(service_kwargs or {})
        self._reconnect = Backoff(
            base_s=reconnect_delay_s,
            cap_s=max(reconnect_delay_s, reconnect_delay_max_s),
            seed=seed,
        )
        self._stop = asyncio.Event()
        self._client: Optional[ReachabilityClient] = None
        self._resubscribe = False
        self.promoted = False
        self.connected = False
        self.records_applied = 0
        self.snapshots_loaded = 0
        self.reconnects = 0
        self.severed = 0
        self.server: Optional[ReachabilityServer] = None
        service = None
        if (
            self.journal_path.exists()
            and self.journal_path.stat().st_size > 0
        ):
            try:
                service = ReachabilityService.recover(
                    self.journal_path, **self._service_kwargs
                )
            except JournalReplayError:
                # Nothing to replay onto (a crash inside the snapshot
                # bootstrap leaves a journal past version 0 with no
                # checkpoint): keep the file for inspection and start
                # over at watermark 0, so the primary answers the
                # subscribe with its journal or a snapshot.
                os.replace(
                    self.journal_path,
                    self.journal_path.with_name(
                        self.journal_path.name + ".unrecoverable"
                    ),
                )
        if service is None:
            service = ReachabilityService(
                graph=DynamicDiGraph(),
                journal=self.journal_path,
                **self._service_kwargs,
            )
        self.service = service

    @property
    def watermark(self) -> int:
        """The replication watermark (= local graph version)."""
        return self.service.watermark

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> ReachabilityServer:
        """Serve reads from this replica (read-only until promotion)."""
        self.server = ReachabilityServer(
            self.service,
            host,
            port,
            read_only=True,
            role="replica",
        )
        await self.server.start()
        return self.server

    # ------------------------------------------------------------------
    # The subscription loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Follow the primary until :meth:`stop` (reconnecting forever).

        Connection loss is routine: the loop backs off and resubscribes
        at the current watermark. Only :meth:`stop` ends it.
        """
        loop = asyncio.get_running_loop()
        while not self._stop.is_set():
            try:
                client = await ReachabilityClient.open(
                    self.primary_host, self.primary_port
                )
            except OSError:
                await self._backoff()
                continue
            self._client = client
            try:
                await self._follow(client, loop)
            except (ConnectionLost, ServerError, OSError):
                pass
            finally:
                self.connected = False
                self._client = None
                await client.close()
            await self._backoff()

    async def _backoff(self) -> None:
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._stop.wait(), self._reconnect.next_delay()
            )

    async def _follow(
        self, client: ReachabilityClient, loop: asyncio.AbstractEventLoop
    ) -> None:
        self._resubscribe = False
        subscribed = await client.subscribe(after=self.service.watermark)
        # A successful subscription resets the reconnect schedule: the
        # next loss starts again from the base delay.
        self._reconnect.reset()
        snapshot = subscribed.get("snapshot")
        if snapshot is not None:
            await loop.run_in_executor(
                None, self._bootstrap_from_snapshot, snapshot
            )
        self.connected = True
        self.reconnects += 1
        while not self._stop.is_set() and not self._resubscribe:
            record = await client.next_journal(timeout=0.1)
            if record is None:
                if client._reader_task.done():
                    return  # connection lost; outer loop reconnects
                continue  # idle poll tick
            applied = await loop.run_in_executor(
                None, self.service.apply_journal_record, record
            )
            if applied is not None:
                self.records_applied += 1

    def repoint(self, host: str, port: int) -> None:
        """Follow a different primary from the next (re)connect on.

        Used by the supervisor after a failover: the losing replicas
        re-subscribe to the promoted winner at their own watermark —
        version-stamp dedup makes the hand-off exact.
        """
        self.primary_host = host
        self.primary_port = port
        self.sever()

    def sever(self) -> None:
        """Drop the current connection (chaos hook / repoint helper).

        The run loop treats it like any other connection loss: back off,
        reconnect, resubscribe at the watermark. Safe to call when not
        connected (no-op beyond requesting a resubscribe).
        """
        self._resubscribe = True
        self.severed += 1
        client = self._client
        if client is not None and not client._reader_task.done():
            client._reader_task.cancel()
            # Wake a blocked next_journal() so _follow notices promptly.
            client._journal_frames.put_nowait(None)

    def stats(self) -> Dict[str, object]:
        """Replication counters plus the live reconnect-backoff state."""
        return {
            "watermark": self.watermark,
            "connected": self.connected,
            "promoted": self.promoted,
            "records_applied": self.records_applied,
            "snapshots_loaded": self.snapshots_loaded,
            "reconnects": self.reconnects,
            "severed": self.severed,
            "backoff": self._reconnect.snapshot(),
        }

    def _bootstrap_from_snapshot(self, snapshot: dict) -> None:
        """Rebuild the local service from a full primary snapshot.

        The graph cannot be rolled *back* to the snapshot version
        (versions are monotone), so bootstrap swaps in a fresh graph,
        fresh service, and a fresh local journal anchored by a local
        checkpoint — after which ``recover()`` on the local journal
        reproduces exactly this state.
        """
        graph = DynamicDiGraph(
            edges=snapshot.get("edges", []),
            vertices=snapshot.get("vertices", []),
        )
        graph.restore_version(int(snapshot["version"]))
        old = self.service
        old.close()
        self.journal_path.unlink(missing_ok=True)
        service = ReachabilityService(
            graph=graph,
            journal=self.journal_path,
            **self._service_kwargs,
        )
        # Anchor the journal: without a checkpoint, a journal whose
        # header opens at version V > 0 has no recoverable base.
        service.journal.checkpoint(graph, self.checkpoint_path)
        self.service = service
        if self.server is not None:
            self.server.service = service
        self.snapshots_loaded += 1

    def stop(self) -> None:
        """Ask :meth:`run` to return after its current record."""
        self._stop.set()

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def promote(self, epoch: Optional[int] = None) -> ReachabilityService:
        """Take over as primary: recover from the local journal.

        Call only after :meth:`run` has returned (use :meth:`stop`).
        The returned service is the node's new :attr:`service`; an
        attached server is flipped writable and re-pointed at it.
        ``epoch`` stamps the attached server's lease epoch (supervised
        failover; see :mod:`repro.net.supervisor`).
        """
        self._stop.set()
        self.service.close()
        self.service = ReachabilityService.recover(
            self.journal_path, **self._service_kwargs
        )
        self.promoted = True
        if self.server is not None:
            self.server.service = self.service
            self.server.promote(epoch)
        return self.service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        self.stop()
        if self.server is not None:
            await self.server.stop()
        self.service.close()
