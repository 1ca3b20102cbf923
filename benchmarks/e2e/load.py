"""The load generator: one asyncio process, two connections under load.

Closed-loop slots keep a fixed number of requests in flight. The churn
writer is coupled to the readers by count, not by the clock: update
``i`` is due the moment the readers have completed ``i *
READS_PER_UPDATE`` queries, so every run serves the same mix of reads
and writes however fast its host is (on a clock, a slow host spends a
larger share of the run inside updates, and reader throughput falls
faster than the host slowed). Requests run from the start of warm-up to
the end of the measured window without a break; the window is cut out
afterwards by completion time, so there is no ramp at its edges.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net import ReachabilityClient, ServerError, protocol

import host
from inputs import Inputs, READS_PER_UPDATE
from serving import ServerProcess

CONNECTIONS = 2
POINT_SLOTS = 32
#: Sub-window length. Sub-window rates are a spread diagnostic only
#: (``client.qps_window_cv``); every reported metric is computed over
#: the whole measured window.
SUB_S = 2.0
#: Memory samples per sub-window (``rss_mb`` is the highest in the window).
PSS_PER_SUB = 4
#: Grace past the scheduled end before the phase is declared hung.
PHASE_GRACE_S = 30.0
#: Vias that mean the server refused or failed the request.
_FAILED_VIA = ("shed", "shed-dedup", "error")

_HEADER = struct.Struct(">I")

now = time.perf_counter


@dataclass
class Sample:
    """One completed wire request (a query, a frame or an update)."""

    conn: int
    seq: int
    start: float
    end: float
    payload: object  # (s, t) | frame index | update index
    reply: object  # QueryOutcome | List[QueryOutcome] | dict | None
    #: Open-loop only: when the request was due.
    due: float = 0.0


@dataclass
class PhaseResult:
    queries: List[Sample] = field(default_factory=list)
    updates: List[Sample] = field(default_factory=list)
    #: Phase-level faults: a hung phase, a dead server.
    errors: List[str] = field(default_factory=list)
    #: Error replies; each is also a sample whose ``reply`` is ``None``,
    #: which is where it is counted as a failed operation.
    refused: List[str] = field(default_factory=list)
    #: (timestamp, server cpu s, client cpu s, server PSS MiB, stats|None,
    #: host.cpu_times())
    marks: List[tuple] = field(default_factory=list)
    #: (timestamp, server PSS MiB) between marks.
    pss: List[Tuple[float, float]] = field(default_factory=list)
    stream_exhausted: bool = False
    spans: List[tuple] = field(default_factory=list)


class Phase:
    """Warm-up plus the measured window for one workload.

    Server CPU and memory are sampled at every sub-window edge (a
    *mark*); ``stats_at`` names the marks that also fetch the server's
    stats frame.
    """

    def __init__(
        self,
        inputs: Inputs,
        server: ServerProcess,
        clients: List[ReachabilityClient],
        seconds: float,
        *,
        stats_at: Sequence[int] = (),
        trace_from: Optional[float] = None,
    ) -> None:
        self.inputs = inputs
        self.server = server
        self.clients = clients
        self.warmup_s = inputs.sizes.warmup_s
        # At least two sub-windows, so a traced run has two halves.
        self.ticks = max(2, int(round(seconds / SUB_S)))
        self.sub_s = seconds / self.ticks
        self.length_s = self.warmup_s + self.ticks * self.sub_s
        self.stats_at = set(stats_at)
        #: Offset from which requests also record spans (traced half).
        self.trace_from = trace_from
        self.result = PhaseResult()
        self.t0 = 0.0
        self.end = 0.0

    async def run(self) -> PhaseResult:
        kind = self.inputs.workload.kind
        self.t0 = now()
        self.end = self.t0 + self.length_s
        tasks = [asyncio.ensure_future(self._monitor())]
        if kind == "batch":
            tasks += [
                asyncio.ensure_future(self._batch_slot(c))
                for c in range(CONNECTIONS)
            ]
        pipes: List[PointPipe] = []
        try:
            if kind != "batch":
                loop = asyncio.get_running_loop()
                for c in (range(CONNECTIONS) if kind == "point" else [1]):
                    pipe = PointPipe(
                        c, self.inputs.point_streams[c], POINT_SLOTS, self.end
                    )
                    pipes.append(pipe)
                    await loop.create_connection(
                        lambda pipe=pipe: pipe, "127.0.0.1", self.server.port
                    )
                    tasks.append(pipe.done)
                if kind == "churn":
                    tasks.append(asyncio.ensure_future(self._writer(0, pipes[0])))
            await asyncio.wait_for(
                asyncio.gather(*tasks), self.length_s + PHASE_GRACE_S
            )
        except asyncio.TimeoutError:
            self.result.errors.append("phase hung past its grace period")
        except Exception as exc:  # a dead server fails the workload
            self.result.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for pipe in pipes:
                pipe.close()
        for pipe in pipes:  # off the clock: decode what came back
            self.result.stream_exhausted |= pipe.exhausted
            for sample in pipe.samples(self.result.refused):
                self.result.queries.append(sample)
                self._span("net.client.query", sample)
        return self.result

    async def _monitor(self) -> None:
        """One mark per sub-window edge (time, server CPU, client CPU,
        memory, host CPU times) and memory samples in between."""
        for step in range(self.ticks * PSS_PER_SUB + 1):
            due = self.t0 + self.warmup_s + step * self.sub_s / PSS_PER_SUB
            await asyncio.sleep(max(0.0, due - now()))
            if not self.server.alive():
                raise RuntimeError("server died mid-phase")
            tick, between = divmod(step, PSS_PER_SUB)
            if between:
                self.result.pss.append((now(), self.server.pss_mib()))
                continue
            stats = None
            if tick in self.stats_at:
                stats = await self.clients[0].stats()
            self.result.marks.append((
                now(), self.server.cpu_seconds(), time.process_time(),
                self.server.pss_mib(), stats, host.cpu_times(),
            ))

    def _span(self, name: str, sample: Sample) -> None:
        if self.trace_from is not None and sample.start >= self.t0 + self.trace_from:
            self.result.spans.append((
                f"{self.inputs.workload.name}/{sample.conn}/{sample.seq}",
                name, sample.start, sample.end, "phase",
            ))

    async def _batch_slot(self, conn: int) -> None:
        """One frame in flight on this connection, which sends every
        ``CONNECTIONS``-th frame of the pool, cycling in order. With a
        frame always queued behind the one being searched the server
        never idles between frames; a server that sleeps and wakes per
        frame is re-placed by a shared host each time, and its speed
        with it."""
        frames = self.inputs.frames
        out = self.result.queries
        seq = 0
        while now() < self.end:
            index = (conn + seq * CONNECTIONS) % len(frames)
            start = now()
            try:
                reply = await self.clients[conn].query_batch(frames[index])
            except ServerError as exc:
                reply = None
                self.result.refused.append(f"batch: {exc}")
            sample = Sample(conn, seq, start, now(), index, reply)
            out.append(sample)
            self._span("net.client.query_batch", sample)
            seq += 1

    async def _writer(self, conn: int, pipe: "PointPipe") -> None:
        """Single writer: update ``i`` is due when the readers have
        completed ``(i + 1) * READS_PER_UPDATE`` queries, and is timed
        from that moment."""
        client = self.clients[conn]
        for i, (op, u, v) in enumerate(self.inputs.updates):
            due = await pipe.completed((i + 1) * READS_PER_UPDATE)
            if due >= self.end:
                return
            start = now()
            try:
                call = client.add_edge if op == "+" else client.remove_edge
                reply = await call(u, v)
            except ServerError as exc:
                reply = None
                self.result.refused.append(f"update: {exc}")
            sample = Sample(conn, i, start, now(), i, reply, due=due)
            self.result.updates.append(sample)
            self._span("net.client.update", sample)
        self.result.stream_exhausted = True


class PointPipe(asyncio.Protocol):
    """``slots`` point queries always in flight on one raw connection.

    The repo's client spends ~35 us of this process on a query (a future,
    two awaited reads, JSON both ways), which at ``point_hot``'s rate is
    most of a CPU: a generator that close to saturation measures itself
    whenever its CPU runs slower than the server's. So this writes the
    request frames itself (the same bytes ``protocol.encode`` makes),
    timestamps replies as their bytes arrive and keeps them undecoded;
    ``samples()`` decodes them after the phase. Every burst of replies
    is answered at once with as many new requests.
    """

    def __init__(self, conn: int, stream, slots: int, end: float) -> None:
        self.conn = conn
        self.src, self.dst = stream[0].tolist(), stream[1].tolist()
        self.slots = slots
        self.end = end
        #: Send time by request id, which is the stream position.
        self.sent_at: List[float] = []
        self.bodies: List[bytes] = []
        self.got_at: List[float] = []
        self.exhausted = False
        self.done: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        self._buffer = b""
        self._transport: Optional[asyncio.Transport] = None
        self._waiting: Optional[Tuple[int, "asyncio.Future[float]"]] = None

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._send(self.slots)

    def _send(self, count: int) -> None:
        first = len(self.sent_at)
        last = min(first + count, len(self.src))
        self.exhausted |= last - first < count
        src, dst, pack = self.src, self.dst, _HEADER.pack
        frames = []
        for i in range(first, last):
            body = b'{"type":"query","id":%d,"s":%d,"t":%d}' % (i, src[i], dst[i])
            frames.append(pack(len(body)))
            frames.append(body)
        self._transport.write(b"".join(frames))
        self.sent_at.extend([now()] * (last - first))

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer + data
        size, at, got = len(buffer), 0, 0
        while size - at >= 4:
            stop = at + 4 + int.from_bytes(buffer[at : at + 4], "big")
            if stop > size:
                break
            self.bodies.append(buffer[at + 4 : stop])
            at = stop
            got += 1
        self._buffer = buffer[at:]
        if not got:
            return
        instant = now()
        self.got_at.extend([instant] * got)
        if instant < self.end and not self.exhausted:
            self._send(got)
        elif len(self.bodies) == len(self.sent_at):
            self._finish(None)
        if self._waiting and len(self.bodies) >= self._waiting[0]:
            self._wake(instant)

    def connection_lost(self, exc) -> None:
        self._finish(ConnectionError(f"server closed a connection: {exc}"))

    def _finish(self, error: Optional[Exception]) -> None:
        if not self.done.done():
            if error is None:
                self.done.set_result(None)
            else:
                self.done.set_exception(error)
        self._wake(now())

    def _wake(self, instant: float) -> None:
        if self._waiting and not self._waiting[1].done():
            self._waiting[1].set_result(instant)
        self._waiting = None

    async def completed(self, count: int) -> float:
        """The instant the ``count``-th reply arrived (or the pipe
        finished); waits for it if it has not yet."""
        if len(self.bodies) >= count or self.done.done():
            return now()
        waiter = asyncio.get_running_loop().create_future()
        self._waiting = (count, waiter)
        return await waiter

    def close(self) -> None:
        if self._transport is not None:
            self._transport.abort()

    def samples(self, refused: List[str]) -> List[Sample]:
        out = []
        for body, end in zip(self.bodies, self.got_at):
            message = json.loads(body)
            i = message["id"]
            if message.get("type") == protocol.ERROR:
                reply = None
                refused.append(f"query: {message.get('error')}")
            else:
                reply = protocol.outcome_from_wire(message)
            out.append(Sample(
                self.conn, i, self.sent_at[i], end, (self.src[i], self.dst[i]), reply
            ))
        return out


def _via(outcome) -> str:
    """The answering rung; fleet answers keep their rule (``shard:wave``)."""
    if outcome.via == "shard":
        return "shard:" + outcome.detail
    return outcome.via


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def window_metrics(
    inputs: Inputs, result: PhaseResult, lo: int, hi: int,
    speed_at: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Dict[str, object]:
    """Everything measured between marks ``lo`` and ``hi``, over all of
    that interval: requests belong to it by completion time. All as
    timed, except ``query_p50_ms_at_speed_1``: the median of latencies
    each scaled by ``speed_at`` the middle of its request."""
    marks = result.marks[lo : hi + 1]
    edges = np.array([m[0] for m in marks])
    t_lo, t_hi = edges[0], edges[-1]
    span = t_hi - t_lo
    frame = inputs.sizes.frame if inputs.workload.kind == "batch" else 1
    done = [q for q in result.queries if t_lo <= q.end < t_hi]
    failed = 0
    vias: Counter = Counter()
    for q in done:
        if q.reply is None:
            failed += frame
        elif frame == 1:
            vias[_via(q.reply)] += 1
        else:
            vias.update(map(_via, q.reply))
    failed += sum(vias[v] for v in _FAILED_VIA)
    completed = len(done) * frame
    latency_ms = np.array([(q.end - q.start) * 1e3 for q in done])
    scaled_ms = latency_ms
    if speed_at is not None and done:
        scaled_ms = latency_ms * speed_at(
            np.array([(q.start + q.end) / 2 for q in done])
        )
    rates = np.histogram([q.end for q in done], edges)[0] * frame / np.diff(edges)
    cpu_s = marks[-1][1] - marks[0][1]

    due = [u for u in result.updates if t_lo <= u.due < t_hi]
    landed = [u for u in due if u.reply is not None and u.reply["applied"]]
    update_ms = np.array([(u.end - u.due) * 1e3 for u in landed])
    lag_ms = np.array([(u.start - u.due) * 1e3 for u in due])
    return {
        "span_s": span,
        "requests": len(done),
        "completed": completed,
        "failed": failed + (len(due) - len(landed)),
        "attempted": completed + len(due),
        "qps": completed / span,
        "query_p50_ms": percentile(latency_ms, 50),
        "query_p50_ms_at_speed_1": percentile(scaled_ms, 50),
        "query_p90_ms": percentile(latency_ms, 90),
        "query_p99_ms": percentile(latency_ms, 99),
        "server_cpu_us_per_query": cpu_s * 1e6 / completed if completed else 0.0,
        "rss_mb": max(
            [m[3] for m in marks] + [p for at, p in result.pss if t_lo <= at <= t_hi]
        ),
        "server_cpus": cpu_s / span,
        "client_cpu_share": (marks[-1][2] - marks[0][2]) / span,
        "qps_window_cv": float(rates.std() / rates.mean()) if rates.mean() else 0.0,
        "sub_window_rates": [round(float(r), 1) for r in rates],
        "pss_series": [round(m[3], 1) for m in marks],
        "vias": dict(vias),
        "updates_due": len(due),
        "updates_landed": len(landed),
        "update_mean_ms": float(update_ms.mean()) if len(update_ms) else 0.0,
        "writer_lag_ms_max": float(lag_ms.max()) if len(lag_ms) else 0.0,
    }


def via_share(vias: Dict[str, int], *names: str) -> float:
    total = sum(vias.values())
    return sum(vias.get(n, 0) for n in names) / total if total else 0.0


async def first_request(inputs: Inputs, client: ReachabilityClient) -> None:
    """The workload's own kind of request, once: ends set-up (it pays the
    lazy fleet deploy and the first CSR freeze)."""
    if inputs.workload.kind == "batch":
        # The pool's last frame: evicted again before the cycle reaches it.
        await client.query_batch(inputs.frames[-1])
    else:
        src, dst = inputs.point_streams[-1]
        await client.query(int(src[-1]), int(dst[-1]))


async def ping_rtt_us(client: ReachabilityClient, count: int = 200) -> float:
    samples = []
    for _ in range(count):
        start = now()
        await client.ping()
        samples.append(now() - start)
    return float(np.median(samples)) * 1e6
