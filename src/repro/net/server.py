"""The asyncio serving front end over one :class:`ReachabilityService`.

Architecture
------------
One event loop owns all sockets; the service owns no threads, so its
calls run on the loop's default executor — one query wave at a time.
Each socket is one ``asyncio.Protocol``
object (:class:`_Connection`). A point query costs no task, future or
``send()`` of its own — the socket work is per *wave*, like the engine
call:

* **Read, split.** ``data_received`` feeds the bytes of one ``recv`` to
  a :class:`~repro.net.protocol.FrameSplitter`, which returns every
  frame they complete (a frame spanning many reads is buffered in linear
  time). A framing error (oversized, undecodable, EOF inside a frame)
  ends the connection once the frames ahead of it are answered.
* **Enqueue.** ``query`` frames go onto one server-wide queue as
  ``(s, t, deadline_s, connection, id)`` tuples. With
  ``service.max_pending`` set, a query arriving while that many are
  queued or executing is shed here — before any executor thread is
  burned — with :meth:`ReachabilityService.shed_outcome`'s live
  ``retry_after_ms`` hint. A malformed query gets its own ``error``
  reply; its neighbours in the read are served.
* **Wave.** One drain task gathers what is queued, across connections,
  into one ``service.query_batch`` call per wave (the batcher is the
  sink, so dedup, fast-path/cache pre-filtering and — past the cutover
  — bit-parallel kernel waves all engage). Under load the queue refills
  while a wave executes, so waves pack toward ``max_wave`` lanes exactly
  when batching pays most. The queries of a wave that carry
  ``deadline_ms`` run first, apart, under the tightest of them; the
  others run without one.
* **Write.** :func:`~repro.net.protocol.encode_results` writes a
  ``result`` frame per query straight from the wave's outcome columns
  (shed and error replies too), grouped by connection and written with
  one ``transport.write`` per connection per wave.
* **Backpressure.** When a connection's write buffer passes its
  high-water mark the server stops *reading* that socket until it
  drains: a client that stops reading stops being read, and nobody else
  waits for it.

Every other frame type runs as a task of its own and awaits its reply
through that backpressure: each is one executor call that dwarfs a
task's cost, or (``subscribe``) a stream that must not outrun a slow
replica. ``net_reads`` / ``net_writes`` count ``recv`` bursts and
``transport.write`` calls; ``net_coalesced_queries / net_writes`` is
replies per syscall (1 for a lone query, the burst under pipelining).

**Journal shipping.** A ``subscribe`` frame turns the connection into
a replication feed. One server-wide :class:`JournalFanout` owns the
single live :class:`~repro.graph.journal.JournalTailer` — however many
replicas subscribe, the journal file has one reader — and fans every
new record out to per-subscriber queues. A fresh subscriber catches up
with a one-off bounded read from its own resume point (version-stamp
dedup reconciles the two streams), and one whose resume point was
compacted away gets a full ``snapshot`` in the ``subscribed`` response
first (one coherent read-locked graph capture), then the stream
continues from the snapshot's version.

**Leases.** A supervisor (see :mod:`repro.net.supervisor`) renews a
write lease on the primary with every heartbeat. A primary that stops
hearing renewals — partitioned from its supervisor — demotes itself to
read-only once the last grant's TTL expires, *before* the supervisor's
fencing wait elapses and a replica is promoted in its place: at most one
writable primary exists at any instant. A server that never received a
lease (standalone operation) never demotes.

The server never trusts the network with correctness: every answer is a
:class:`~repro.service.engine.QueryOutcome` produced by the service
pipeline, version-stamped as usual, so a client can always tell which
snapshot — which replication watermark, on a replica — answered it.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.graph.journal import JournalGap, JournalTailer
from repro.net import protocol
from repro.service.engine import ReachabilityService
from repro.service.outcomes import QueryOutcome

#: One queued wire query: ``(s, t, deadline_s, connection, id)``.
Item = Tuple[int, int, Optional[float], "_Connection", object]

#: Subscriber feed poll interval while the journal is idle (seconds).
TAIL_POLL_S = 0.02


def _vertex_pair(s: object, t: object) -> Tuple[int, int]:
    """A frame's endpoints, which must be JSON integers: ``int()`` would
    read ``4.5`` as vertex 4, ``"5"`` as 5 and ``true`` as 1."""
    if type(s) is not int or type(t) is not int:
        raise ValueError(f"vertex ids must be integers, got {s!r}, {t!r}")
    return s, t


def _count(message: dict, key: str) -> int:
    """A frame's ``key`` (absent is 0), which must be a JSON integer
    >= 0: ``int()`` would read ``true`` as 1, ``"7"`` as 7 and ``1.9``
    as 1."""
    value = message.get(key, 0)
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def _duration_ms(message: dict, key: str) -> float:
    """A frame's ``key`` in ms (absent is 0), which must be a finite,
    non-negative JSON number: ``float()`` would read ``true`` as 1 and
    ``"5"`` as 5, and ``json.loads`` accepts ``NaN`` and ``Infinity``,
    which no comparison with a clock ever decides."""
    value = message.get(key, 0)
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise ValueError(f"{key} must be a non-negative number, got {value!r}")
    return value


def _deadline_s(message: dict) -> Optional[float]:
    """A frame's ``deadline_ms`` in seconds; absent or 0 is none. A wave
    runs under the ``min()`` of its deadlines, which a NaN or a negative
    one would decide."""
    if message.get("deadline_ms") is None:
        return None
    deadline_ms = _duration_ms(message, "deadline_ms")
    return deadline_ms / 1000.0 if deadline_ms else None


class JournalFanout:
    """One shared journal reader feeding N subscriber queues.

    The first subscriber starts the pump: a single
    :class:`~repro.graph.journal.JournalTailer` anchored at the live
    watermark, polled by one task, every new record pushed onto every
    attached queue. Subscribers handle their own resume point with a
    one-off catch-up read (:meth:`ReachabilityServer._catch_up`);
    per-connection version-stamp dedup reconciles the catch-up stream
    with whatever the pump enqueued meanwhile. When the last subscriber
    detaches the pump stops and the tailer closes — an idle server holds
    no journal reader at all. A pump failure (gap, corrupt record)
    pushes ``None`` so every subscriber's feed ends and the replica
    resubscribes from scratch.
    """

    def __init__(self, server: "ReachabilityServer") -> None:
        self._server = server
        self._queues: set = set()
        self._task: Optional[asyncio.Task] = None

    def attach(self) -> "asyncio.Queue[Optional[dict]]":
        """Register a subscriber queue (starts the pump on first use)."""
        queue: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self._queues.add(queue)
        if self._task is None:
            tailer = JournalTailer(
                self._server.service.journal.path,
                after_version=self._server.service.watermark,
            )
            self._server._incr("net_tailers")
            self._task = asyncio.get_running_loop().create_task(
                self._pump(tailer)
            )
        return queue

    def detach(self, queue) -> None:
        self._queues.discard(queue)
        if not self._queues and self._task is not None:
            self._task.cancel()
            self._task = None

    async def _pump(self, tailer: JournalTailer) -> None:
        server = self._server
        journal = server.service.journal
        loop = asyncio.get_running_loop()
        try:
            while not server._closed:
                journal.publish()
                records = await loop.run_in_executor(None, tailer.poll)
                for record in records:
                    for queue in self._queues:
                        queue.put_nowait(record)
                if not records:
                    await asyncio.sleep(TAIL_POLL_S)
        except asyncio.CancelledError:
            pass
        except Exception:
            server._incr("net_feed_errors")
            for queue in self._queues:
                queue.put_nowait(None)
        finally:
            tailer.close()

    async def close(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for queue in self._queues:
            queue.put_nowait(None)
        self._queues.clear()


class _Connection(asyncio.Protocol):
    """One client socket: reads split into frames, replies written in bulk.

    ``query`` frames are queued for the coalescer and answered by the
    wave that served them (:meth:`write`); every other frame runs as a
    task that awaits :meth:`respond`. Once the peer has sent EOF (or a
    framing error ended reading) the connection closes as soon as every
    request it had in flight is answered.
    """

    def __init__(self, server: "ReachabilityServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self._splitter = protocol.FrameSplitter()
        self._reading = True
        self.open_requests = 0  # queued queries + running tasks
        self.tasks: Set[asyncio.Task] = set()
        self._writable = asyncio.Event()
        self.closed = server._loop.create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._writable.set()
        self.server._connections.add(self)
        self.server._incr("net_connections")

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)
        for task in self.tasks:
            task.cancel()
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self.server._incr("net_reads")
        try:
            messages, error = self._splitter.feed(data), False
        except protocol.ProtocolError as exc:
            # The stream position is poisoned: serve the frames ahead of
            # the bad one, read no further, hang up once all is answered.
            messages, error = exc.messages, True
            self.transport.pause_reading()
        if messages:
            self.server._on_frames(self, messages)
        if error:
            self._end_of_requests(error)

    def eof_received(self) -> bool:
        self._end_of_requests(error=self._splitter.pending)  # inside a frame
        return True  # half-closed: replies in flight are still written

    def _end_of_requests(self, error: bool) -> None:
        if error:
            self.server._incr("net_protocol_errors")
        self._reading = False
        self.answered(0)

    def answered(self, count: int) -> None:
        """``count`` requests are done with; close if they were the last
        of a connection that will send no more."""
        self.open_requests -= count
        if not self._reading and not self.open_requests:
            self.transport.close()

    def pause_writing(self) -> None:
        # A peer that stops reading its replies stops being read, and
        # awaited respond() calls block.
        self._writable.clear()
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._writable.set()
        if self._reading:
            self.transport.resume_reading()

    def spawn(self, coro) -> None:
        """Run one task-path request (it replies through :meth:`respond`)."""
        task = self.server._loop.create_task(coro)
        self.tasks.add(task)
        self.open_requests += 1
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        self.answered(1)

    def write(self, frames: List[bytes]) -> None:
        """``frames`` in one ``transport.write`` (none if the peer is gone)."""
        if not self.transport.is_closing():
            self.server._incr("net_writes")
            self.transport.write(b"".join(frames))

    async def respond(self, message: Union[dict, bytes]) -> None:
        """Write one frame (``bytes``: already encoded), then wait out
        write backpressure."""
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        if not isinstance(message, bytes):
            message = protocol.encode(message)
        self.write([message])
        await self._writable.wait()

    def shutdown(self) -> None:
        """Server stop: flush the replies, unless the peer stopped reading."""
        for task in self.tasks:
            task.cancel()
        if self._writable.is_set():
            self.transport.close()
        else:
            self.transport.abort()


class ReachabilityServer:
    """Serve one :class:`ReachabilityService` over asyncio sockets.

    Parameters
    ----------
    service:
        The service to serve. The server never closes it.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_wave:
        Most queries drained into one ``query_batch`` call.
    coalesce_delay_s:
        Optional gathering window: how long the drain task waits after
        the first enqueue before draining, letting concurrent arrivals
        pack into the same wave. 0 (default) drains immediately —
        under real load the executor round-trip itself is the window.
    read_only:
        Reject ``update`` frames (replica mode). Flipped by
        :meth:`promote`.
    role:
        Advertised in ``stats-result`` frames (``"primary"`` /
        ``"replica"``).
    """

    def __init__(
        self,
        service: ReachabilityService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_wave: int = 256,
        coalesce_delay_s: float = 0.0,
        read_only: bool = False,
        role: str = "primary",
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.role = role
        self.read_only = read_only
        self._max_wave = max(1, max_wave)
        self._coalesce_delay_s = max(0.0, coalesce_delay_s)
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Deque[Item] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._inflight = 0  # wire queries queued or executing
        self._closed = False
        self._connections: Set[_Connection] = set()
        self._fanout: Optional[JournalFanout] = None
        # Write-lease state (supervised clusters only; see module doc).
        # A server that never receives a LEASE frame keeps
        # _lease_deadline=None and never demotes.
        self.lease_epoch = 0
        self._lease_deadline: Optional[float] = None
        # Single-threaded counters (event loop only); exposed via STATS.
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReachabilityServer":
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._drain_task = asyncio.create_task(self._drain_loop())
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, fail queued queries, and close connections."""
        self._closed = True
        if self._server is not None:
            self._server.close()
        if self._fanout is not None:
            await self._fanout.close()
            self._fanout = None
        if self._drain_task is not None:
            self._drain_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._drain_task
        self._fail(list(self._queue), "server-stopped")
        self._queue.clear()
        connections = list(self._connections)
        waits = [conn.closed for conn in connections]
        for conn in connections:
            waits.extend(conn.tasks)
            conn.shutdown()
        await asyncio.gather(*waits, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    def promote(self, epoch: Optional[int] = None) -> None:
        """Flip a replica server writable (role and read-only gate).

        ``epoch`` stamps the promotion's lease epoch so a stale
        supervisor's older-epoch grants are rejected. The new primary is
        unleased (never demotes) until the first grant arrives.
        """
        self.read_only = False
        self.role = "primary"
        if epoch is not None:
            self.lease_epoch = int(epoch)
        self._lease_deadline = None

    def demote(self) -> None:
        """Drop to read-only (lease lost; the split-brain guard)."""
        if self.role == "demoted":
            return
        self.read_only = True
        self.role = "demoted"
        self._incr("net_demotions")

    def _maybe_demote(self) -> None:
        """Lazily enforce lease expiry (checked on every relevant frame)."""
        if (
            self._lease_deadline is not None
            and not self.read_only
            and self._loop is not None
            and self._loop.time() > self._lease_deadline
        ):
            self.demote()

    def _incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_frames(self, conn: _Connection, messages: List[dict]) -> None:
        """Route the frames of one read: queries onto the coalescer
        queue, everything else to a task of its own."""
        replies: List[bytes] = []  # shed and malformed queries, answered now
        queries = queued = 0
        max_pending = self.service.max_pending
        for message in messages:
            if message.get("type") != protocol.QUERY:
                conn.spawn(self._handle_message(message, conn.respond))
                continue
            queries += 1
            mid = message.get("id")
            try:
                s, t = _vertex_pair(message["s"], message["t"])
                deadline_s = _deadline_s(message)
                if max_pending and self._inflight >= max_pending:
                    # Socket-layer backpressure: shed before burning an
                    # executor thread, with the service's live
                    # retry-after hint.
                    self._incr("net_shed")
                    shed = self.service.shed_outcome(
                        s, t, backlog=self._inflight
                    )
                    replies.append(protocol.encode_result(mid, shed))
                    continue
            except Exception as exc:  # per-request containment
                replies.append(protocol.encode(self._error_reply(mid, exc)))
                continue
            self._inflight += 1
            self._queue.append((s, t, deadline_s, conn, mid))
            queued += 1
        self._incr("net_requests", len(messages))
        if queries:
            self._incr("net_queries", queries)
        if queued:
            conn.open_requests += queued
            self._wakeup.set()
        if replies:
            conn.write(replies)

    async def _handle_message(self, message: dict, respond) -> None:
        mid = message.get("id")
        mtype = message.get("type")
        try:
            if mtype == protocol.BATCH:
                reply = await self._serve_batch(message, mid)
            elif mtype == protocol.UPDATE:
                reply = await self._serve_update(message, mid)
            elif mtype == protocol.STATS:
                reply = await self._serve_stats(mid)
            elif mtype == protocol.PING:
                self._maybe_demote()
                reply = {
                    "type": protocol.PONG,
                    "id": mid,
                    "role": self.role,
                    "watermark": self.service.watermark,
                    "epoch": self.lease_epoch,
                }
            elif mtype == protocol.LEASE:
                reply = self._serve_lease(message, mid)
            elif mtype == protocol.SUBSCRIBE:
                await self._serve_subscription(message, respond)
                return
            else:
                reply = self._error(mid, f"unknown-type:{mtype}")
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # per-request containment, never fatal
            reply = self._error_reply(mid, exc)
        with contextlib.suppress(ConnectionError, RuntimeError):
            await respond(reply)

    @staticmethod
    def _error(mid, error: str, **extra) -> dict:
        return {"type": protocol.ERROR, "id": mid, "error": error, **extra}

    def _error_reply(self, mid, exc: Exception) -> dict:
        """The reply to a request that raised (contained, counted)."""
        self._incr("net_request_errors")
        return self._error(mid, str(exc) or type(exc).__name__)

    # ------------------------------------------------------------------
    # Queries: the socket-layer coalescer
    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        while not self._closed:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self._coalesce_delay_s:
                # Gathering window: let concurrent arrivals join the wave.
                await asyncio.sleep(self._coalesce_delay_s)
            while self._queue:
                items = [
                    self._queue.popleft()
                    for _ in range(min(len(self._queue), self._max_wave))
                ]
                # One client's deadline must not degrade another's query:
                # the pairs that asked for one run as a wave of their own
                # (first — it is bounded), the rest without a deadline.
                waves = [
                    [item for item in items if item[2] is not None],
                    [item for item in items if item[2] is None],
                ]
                while waves:
                    try:
                        if waves[0]:
                            await self._run_wave(waves[0])
                    except asyncio.CancelledError:  # stop() mid-wave
                        for wave in waves:
                            self._fail(wave, "server-stopped")
                        raise
                    del waves[0]

    async def _run_wave(self, items: List[Item]) -> None:
        """One ``query_batch`` call for one deadline class: pairs without
        a deadline, or pairs sharing the tightest of theirs."""
        pairs = [(item[0], item[1]) for item in items]
        deadline_s = None
        if items[0][2] is not None:
            deadline_s = min(item[2] for item in items)
        self._incr("net_coalesced_waves")
        self._incr("net_coalesced_queries", len(items))
        try:
            outcomes = await self._loop.run_in_executor(
                None, self.service.query_batch, pairs, deadline_s
            )
        except Exception as exc:
            self._incr("net_wave_errors")
            self._fail(items, f"wave-failed:{type(exc).__name__}")
        else:
            self._answer(items, outcomes)

    def _answer(
        self, items: List[Item], outcomes: Sequence[QueryOutcome]
    ) -> None:
        """Reply to coalesced queries: one write per connection."""
        self._inflight -= len(items)
        by_conn: Dict[_Connection, List[bytes]] = {}
        replies = protocol.encode_results([item[4] for item in items], outcomes)
        for item, reply in zip(items, replies):
            by_conn.setdefault(item[3], []).append(reply)
        for conn, frames in by_conn.items():
            conn.write(frames)
            conn.answered(len(frames))

    def _fail(self, items: List[Item], detail: str) -> None:
        version = self.service.graph.version
        self._answer(items, [
            QueryOutcome(i[0], i[1], False, False, "error", version, detail)
            for i in items
        ])

    # ------------------------------------------------------------------
    # Batch / update / stats
    # ------------------------------------------------------------------
    async def _serve_batch(self, message: dict, mid) -> bytes:
        pairs = [_vertex_pair(s, t) for s, t in message.get("pairs", [])]
        deadline_s = _deadline_s(message)
        self._incr("net_batches")
        self._incr("net_queries", len(pairs))
        outcomes = await self._loop.run_in_executor(
            None, self.service.query_batch, pairs, deadline_s
        )
        return protocol.encode_batch_result(mid, outcomes)

    async def _serve_update(self, message: dict, mid) -> dict:
        self._maybe_demote()
        if self.read_only:
            self._incr("net_updates_rejected")
            kind = "demoted" if self.role == "demoted" else "replica"
            return self._error(mid, f"read-only-{kind}", role=self.role)
        op = message.get("op")
        u, v = _vertex_pair(message["u"], message["v"])
        if op == "+":
            apply = lambda: self.service.add_edge(u, v)  # noqa: E731
        elif op == "-":
            apply = lambda: self.service.remove_edge(u, v)  # noqa: E731
        else:
            return self._error(mid, f"unknown-op:{op}")
        self._incr("net_updates")
        effect = await self._loop.run_in_executor(None, apply)
        return {
            "type": protocol.UPDATE_RESULT,
            "id": mid,
            "applied": effect.changed,
            "version": effect.version,
        }

    async def _serve_stats(self, mid) -> dict:
        self._maybe_demote()
        snapshot = await self._loop.run_in_executor(None, self.service.stats)
        return {
            "type": protocol.STATS_RESULT,
            "id": mid,
            "role": self.role,
            "watermark": self.service.watermark,
            "epoch": self.lease_epoch,
            "stats": snapshot,
            "server": dict(self.counters),
        }

    def _serve_lease(self, message: dict, mid) -> dict:
        """Grant/renew the supervisor's write lease (epoch-fenced).

        Grants at a *stale* epoch are rejected — that is the split-brain
        guard's other half: after a failover bumps the epoch, an old
        supervisor's renewals cannot resurrect the demoted primary. A
        grant at a strictly *newer* epoch re-promotes a demoted server
        (the supervisor re-reached it and still considers it primary —
        it bumps the epoch precisely to prove the grant is fresh).
        """
        epoch = _count(message, "epoch")
        # A NaN TTL would make the lease never expire: the primary would
        # never demote, and the split-brain guard would be off.
        ttl_ms = _duration_ms(message, "ttl_ms")
        self._maybe_demote()
        if epoch < self.lease_epoch or (
            self.role == "demoted" and epoch == self.lease_epoch
        ):
            self._incr("net_leases_rejected")
            return {
                "type": protocol.LEASE_RESULT,
                "id": mid,
                "granted": False,
                "epoch": self.lease_epoch,
                "role": self.role,
                "watermark": self.service.watermark,
            }
        if self.role == "demoted":
            self._incr("net_lease_regrants")
            self.read_only = False
            self.role = "primary"
        self.lease_epoch = epoch
        self._lease_deadline = self._loop.time() + ttl_ms / 1000.0
        self._incr("net_leases")
        return {
            "type": protocol.LEASE_RESULT,
            "id": mid,
            "granted": True,
            "epoch": self.lease_epoch,
            "role": self.role,
            "watermark": self.service.watermark,
        }

    # ------------------------------------------------------------------
    # Replication: SUBSCRIBE feeds
    # ------------------------------------------------------------------
    def _catch_up_sync(self, after: int) -> Tuple[List[dict], int]:
        """One bounded read of the journal from ``after`` to its end.

        Runs in an executor thread with a throwaway tailer — the
        *persistent* reader is the fanout's single shared tailer; this
        read only covers the stretch between a fresh subscriber's resume
        point and the live position. Raises ``JournalGap`` when ``after``
        was compacted away.
        """
        tailer = JournalTailer(
            self.service.journal.path, after_version=after
        )
        try:
            records = tailer.poll()
            return records, tailer.last_version
        finally:
            tailer.close()

    async def _serve_subscription(self, message: dict, respond) -> None:
        mid = message.get("id")
        after = _count(message, "after")
        journal = self.service.journal
        if journal is None:
            await respond(self._error(mid, "no-journal"))
            return
        self._incr("net_subscribers")
        if self._fanout is None:
            self._fanout = JournalFanout(self)
        fanout = self._fanout
        queue: Optional["asyncio.Queue[Optional[dict]]"] = None
        snapshot_block = None
        sent_ver = after
        try:
            # Attach *before* the catch-up read so no record falls in
            # the crack between the two: anything the pump ships while
            # we read the backlog lands in the queue and is deduped
            # below by version stamp.
            queue = fanout.attach()
            journal.publish()
            try:
                backlog, resume = await self._loop.run_in_executor(
                    None, self._catch_up_sync, after
                )
            except JournalGap:
                # The journal cannot serve `after` any more — bootstrap
                # the subscriber from a coherent full snapshot instead.
                edges, isolated, version = await self._loop.run_in_executor(
                    None, self.service.graph_snapshot
                )
                snapshot_block = {
                    "edges": [[u, v] for u, v in edges],
                    "vertices": isolated,
                    "version": version,
                }
                self._incr("net_snapshots_sent")
                sent_ver = version
                backlog, resume = await self._loop.run_in_executor(
                    None, self._catch_up_sync, version
                )
            subscribed = {
                "type": protocol.SUBSCRIBED,
                "id": mid,
                "version": resume,
                "role": self.role,
            }
            if snapshot_block is not None:
                subscribed["snapshot"] = snapshot_block
            await respond(subscribed)
            for record in backlog:
                if record["ver"] <= sent_ver:
                    continue
                await respond({"type": protocol.JOURNAL, **record})
                sent_ver = record["ver"]
                self._incr("net_journal_shipped")
            while not self._closed:
                record = await queue.get()
                if record is None:  # pump failed or server stopping
                    raise RuntimeError("journal feed interrupted")
                if record["ver"] <= sent_ver:
                    continue
                await respond({"type": protocol.JOURNAL, **record})
                sent_ver = record["ver"]
                self._incr("net_journal_shipped")
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception as exc:
            self._incr("net_feed_errors")
            with contextlib.suppress(Exception):
                await respond(self._error(mid, f"feed-failed:{exc}"))
        finally:
            if queue is not None:
                fanout.detach(queue)
