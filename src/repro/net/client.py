"""The asyncio client: pipelined requests over one connection.

:class:`ReachabilityClient` keeps a single connection and multiplexes
any number of concurrent requests over it: each request carries a fresh
``id``, a background reader task matches responses back to their
awaiting futures, and ``journal`` stream frames (which carry no id) are
routed to an internal queue for :meth:`next_journal`.

Pipelining is the client half of the server's socket-layer coalescer:
``asyncio.gather(*[client.query(s, t) for ...])`` puts every query on
the wire before the first response returns, so the server sees them
concurrently and packs them into one ``query_batch`` wave. A client that
awaits each query before sending the next gets the scalar round-trip
baseline instead — the gap between the two is what the loopback bench
measures.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net import protocol
from repro.service.engine import QueryOutcome
from repro.service.faults import Backoff

#: Reconnect-and-resend retries of one :class:`FailoverClient` request.
MAX_ATTEMPTS = 12
#: Re-sends of a shed query before its ``shed`` answer is returned.
SHED_RETRIES = 4

Pair = Tuple[int, int]


class ServerError(RuntimeError):
    """The server answered this request with an ``error`` frame."""


class ConnectionLost(ConnectionError):
    """The connection died with requests still awaiting responses."""


class ReachabilityClient:
    """An async client for one :class:`~repro.net.server.ReachabilityServer`.

    Use as an async context manager, or pair :meth:`open` with
    :meth:`close`::

        async with await ReachabilityClient.open(host, port) as client:
            outcome = await client.query(0, 9)
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._send_lock = asyncio.Lock()
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self._next_id = 0
        self._journal_frames: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def open(cls, host: str, port: int) -> "ReachabilityClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader_task
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()
        self._fail_pending(ConnectionLost("client closed"))

    async def __aenter__(self) -> "ReachabilityClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        error: Exception = ConnectionLost("connection closed by server")
        try:
            while True:
                message = await protocol.read_frame(self._reader)
                if message is None:
                    break
                if message.get("type") == protocol.JOURNAL:
                    await self._journal_frames.put(message)
                    continue
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (protocol.ProtocolError, ConnectionError, OSError) as exc:
            error = ConnectionLost(str(exc))
        finally:
            self._fail_pending(error)
            # Wake any journal-stream consumer so it sees the loss.
            self._journal_frames.put_nowait(None)

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _request(self, message: dict) -> dict:
        if self._closed:
            raise ConnectionLost("client closed")
        self._next_id += 1
        mid = message["id"] = self._next_id
        future: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[mid] = future
        async with self._send_lock:
            await protocol.send(self._writer, message)
        reply = await future
        if reply.get("type") == protocol.ERROR:
            raise ServerError(reply.get("error", "unknown"))
        return reply

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def query(
        self, s: int, t: int, deadline_ms: Optional[int] = None
    ) -> QueryOutcome:
        """One reachability query; shed answers come back ``via="shed"``
        with their ``retry_after_ms`` hint intact."""
        message = {"type": protocol.QUERY, "s": s, "t": t}
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        reply = await self._request(message)
        return protocol.outcome_from_wire(reply)

    async def query_batch(
        self,
        pairs: Sequence[Pair],
        deadline_ms: Optional[int] = None,
    ) -> List[QueryOutcome]:
        """One explicit batch request (a single ``query_batch`` call
        server-side, bypassing the coalescer)."""
        message = {
            "type": protocol.BATCH,
            "pairs": [[s, t] for s, t in pairs],
        }
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        reply = await self._request(message)
        return [protocol.outcome_from_wire(w) for w in reply["outcomes"]]

    async def add_edge(self, u: int, v: int) -> dict:
        """Insert an edge; returns ``{"applied": bool, "version": int}``.
        Raises :class:`ServerError` (``read-only-replica``) on a replica."""
        return await self._update("+", u, v)

    async def remove_edge(self, u: int, v: int) -> dict:
        """Delete an edge; same contract as :meth:`add_edge`."""
        return await self._update("-", u, v)

    async def _update(self, op: str, u: int, v: int) -> dict:
        reply = await self._request(
            {"type": protocol.UPDATE, "op": op, "u": u, "v": v}
        )
        return {"applied": reply["applied"], "version": reply["version"]}

    async def stats(self) -> dict:
        """The server's full stats frame: ``stats`` (service snapshot,
        counters + derived incl. ``word_occupancy`` and the ``batch_*``
        family), ``server`` (wire counters), ``role``, ``watermark``."""
        return await self._request({"type": protocol.STATS})

    async def ping(self) -> dict:
        """Liveness probe; returns ``{"role", "watermark", ...}``."""
        return await self._request({"type": protocol.PING})

    async def lease(self, epoch: int, ttl_ms: float) -> dict:
        """Grant/renew the server's write lease (supervisor traffic).

        Returns ``{"granted", "epoch", "role", "watermark"}``; servers
        reject grants at epochs older than the one they last accepted.
        """
        return await self._request(
            {"type": protocol.LEASE, "epoch": epoch, "ttl_ms": ttl_ms}
        )

    async def endpoints(self) -> dict:
        """The supervisor's endpoint map: ``{"epoch", "primary",
        "replicas"}``. Only the supervisor's control endpoint serves
        this frame; data servers answer with an error."""
        return await self._request({"type": protocol.ENDPOINTS})

    # ------------------------------------------------------------------
    # Replication stream
    # ------------------------------------------------------------------
    async def subscribe(self, after: int = 0) -> dict:
        """Turn this connection into a journal feed.

        Returns the ``subscribed`` reply — ``version`` is where the
        stream starts, and ``snapshot`` is present when the primary's
        journal could not serve ``after`` (bootstrap from it first).
        Stream records then arrive via :meth:`next_journal`.
        """
        return await self._request({"type": protocol.SUBSCRIBE, "after": after})

    async def next_journal(
        self, timeout: Optional[float] = None
    ) -> Optional[dict]:
        """The next shipped journal record, or ``None`` when the
        connection is gone (resubscribe elsewhere) or ``timeout`` (in
        seconds) elapses with the stream idle."""
        try:
            if timeout is None:
                return await self._journal_frames.get()
            return await asyncio.wait_for(
                self._journal_frames.get(), timeout
            )
        except asyncio.TimeoutError:
            return None


class FailoverClient:
    """A failover-aware client routed through the supervisor.

    Instead of a fixed ``(host, port)``, a :class:`FailoverClient` is
    opened against the *supervisor's* control endpoint. It fetches the
    published endpoint map, connects to the current primary, and
    recovers from three failure shapes without surfacing them:

    * **Connection loss** (primary killed, connection reset): drop the
      dead connection, back off (jittered exponential, reset on
      success), refetch the endpoint map, reconnect to whoever is
      primary now, and re-issue the request.
    * **Read-only rejections** (``read-only-replica`` /
      ``read-only-demoted``): the map pointed at a server that is not —
      or is no longer — writable. Treated exactly like connection loss:
      the next map fetch finds the promoted winner.
    * **Shed answers** (``via="shed"``): retried on the same
      connection, with the backoff delay *capped by the server's*
      ``retry_after_ms`` *hint* — the server knows its own queue better
      than our schedule does.

    Re-sent frames are idempotent end to end. Reads replay trivially.
    An update replayed after a failover re-executes against the new
    primary's graph: set-semantics ``add_edge``/``remove_edge`` make
    the second application a no-op (``applied=False``), and the journal
    version stamp on the *first* application is what replicas dedup by
    — a replayed update can never double-journal. :attr:`counters`
    track ``failover_retries``, ``update_replays``, ``shed_waits``, and
    ``endpoint_refreshes``.
    """

    def __init__(
        self,
        supervisor_host: str,
        supervisor_port: int,
        *,
        base_delay_s: float = 0.05,
        retry_cap_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.supervisor_address = (supervisor_host, supervisor_port)
        self.counters: Dict[str, int] = {}
        self.epoch = 0
        self._endpoints: dict = {}
        self._client: Optional[ReachabilityClient] = None
        self._backoff = Backoff(
            base_s=base_delay_s, cap_s=retry_cap_s, seed=seed
        )
        self._shed_backoff = Backoff(
            base_s=base_delay_s, cap_s=retry_cap_s, seed=seed + 1
        )
        self._closed = False

    @classmethod
    async def open(
        cls, supervisor_host: str, supervisor_port: int, **kwargs
    ) -> "FailoverClient":
        self = cls(supervisor_host, supervisor_port, **kwargs)
        await self._refresh_endpoints()
        return self

    async def close(self) -> None:
        self._closed = True
        await self._drop()

    async def __aenter__(self) -> "FailoverClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def endpoints(self) -> dict:
        """The last endpoint map fetched from the supervisor."""
        return dict(self._endpoints)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _refresh_endpoints(self) -> None:
        async with await ReachabilityClient.open(
            *self.supervisor_address
        ) as control:
            mapping = await control.endpoints()
        self._incr("endpoint_refreshes")
        epoch = int(mapping.get("epoch", 0))
        if self.epoch and epoch > self.epoch:
            self._incr("failovers_observed")
        self.epoch = epoch
        self._endpoints = mapping

    async def _ensure(self) -> ReachabilityClient:
        if self._closed:
            raise ConnectionLost("client closed")
        if self._client is not None and not self._client._reader_task.done():
            return self._client
        primary = self._endpoints.get("primary")
        if not primary:
            raise ConnectionLost("supervisor publishes no primary")
        self._client = await ReachabilityClient.open(
            str(primary[0]), int(primary[1])
        )
        return self._client

    async def _drop(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    def _incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    async def _call(
        self,
        op: Callable[[ReachabilityClient], Awaitable],
        *,
        replay_counter: Optional[str] = None,
    ):
        """Run ``op`` against the current primary, failing over as needed."""
        sent = False
        for attempt in range(MAX_ATTEMPTS + 1):
            try:
                client = await self._ensure()
                if sent and replay_counter is not None:
                    self._incr(replay_counter)
                sent = True
                result = await op(client)
            except (ConnectionLost, ConnectionError, OSError):
                pass
            except ServerError as exc:
                if "read-only" not in str(exc):
                    raise
            else:
                self._backoff.reset()
                return result
            self._incr("failover_retries")
            await self._drop()
            if attempt >= MAX_ATTEMPTS:
                break
            await asyncio.sleep(self._backoff.next_delay())
            with contextlib.suppress(
                OSError,
                ConnectionError,
                ConnectionLost,
                ServerError,
                protocol.ProtocolError,
            ):
                await self._refresh_endpoints()
        raise ConnectionLost(
            f"no writable primary after {MAX_ATTEMPTS + 1} attempts"
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def query(
        self, s: int, t: int, deadline_ms: Optional[int] = None
    ) -> QueryOutcome:
        """One query, retried across failovers and shed rejections."""
        for round_ in range(SHED_RETRIES + 1):
            outcome = await self._call(lambda c: c.query(s, t, deadline_ms))
            if outcome.via != "shed" or round_ == SHED_RETRIES:
                if outcome.via != "shed":
                    self._shed_backoff.reset()
                return outcome
            delay = self._shed_backoff.next_delay()
            if outcome.retry_after_ms is not None:
                delay = min(delay, outcome.retry_after_ms / 1000.0)
            self._incr("shed_waits")
            await asyncio.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    async def query_batch(
        self,
        pairs: Sequence[Pair],
        deadline_ms: Optional[int] = None,
    ) -> List[QueryOutcome]:
        return await self._call(lambda c: c.query_batch(pairs, deadline_ms))

    async def add_edge(self, u: int, v: int) -> dict:
        return await self._call(
            lambda c: c.add_edge(u, v), replay_counter="update_replays"
        )

    async def remove_edge(self, u: int, v: int) -> dict:
        return await self._call(
            lambda c: c.remove_edge(u, v), replay_counter="update_replays"
        )

    async def stats(self) -> dict:
        return await self._call(lambda c: c.stats())

    async def ping(self) -> dict:
        return await self._call(lambda c: c.ping())
