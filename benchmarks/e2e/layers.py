"""Per-layer numbers for the traced run, taken from the benchmark's side.

Two sources, both outside ``src/``:

* direct timings around each layer's public functions, on the workload's
  own graph and inputs;
* spans around the layer methods an in-process ``ReachabilityService``
  calls while it replays the same inputs: each wrapped method records
  ``(name, start, end, parent)``, so a layer's *self* time is its span
  minus the part its child spans cover, and the budget can say how much
  of an engine call no wrapped layer accounts for.

Which group of probes runs on which workload is in ``LayerProbe.run``.
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.ifca import IFCA
from repro.graph import bitsearch, kernels
from repro.graph.snapshot import CSRSnapshot
from repro.net import protocol
from repro.service import ReachabilityService
from repro.service.batcher import plan_batch
from repro.service.cache import VersionedQueryCache
from repro.shard.memory import publish_snapshot, segment_name
from repro.shard.partition import partition_graph
from repro.shard.router import ShardRouter, classify_pair

from inputs import Inputs, Pair, UPDATE_PATTERN

now = time.perf_counter
WAVE_LANES = 64
#: Wall-clock cap per direct timing loop.
LOOP_BUDGET_S = 0.25


class Tracer:
    """In-memory spans with parent links (per thread)."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        start = now()
        try:
            yield
        finally:
            end = now()
            stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper (instance
        level: the class and every other instance stay untouched)."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)

    def self_times(self, root: int) -> Dict[str, float]:
        """Self seconds by span name inside the subtree of span ``root``."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span is not None and span[3] is not None:
                children[span[3]].append(index)
        totals: Dict[str, float] = defaultdict(float)
        stack = [root]
        while stack:
            index = stack.pop()
            name, start, end, _ = self.spans[index]
            covered = sum(
                self.spans[c][2] - self.spans[c][1] for c in children[index]
            )
            totals[name] += (end - start) - covered
            stack.extend(children[index])
        return totals

    def roots(self, name: str) -> List[int]:
        return [
            i for i, s in enumerate(self.spans) if s is not None and s[0] == name
        ]

    def mean_ms(self, name: str) -> float:
        durations = [
            (s[2] - s[1]) * 1e3 for s in self.spans if s is not None and s[0] == name
        ]
        return statistics.fmean(durations) if durations else 0.0


def per_call(fn: Callable, calls: Iterable[tuple]) -> float:
    """Mean seconds per call over ``calls``, stopping at the loop budget."""
    start = now()
    count = 0
    for args in calls:
        fn(*args)
        count += 1
        if count % 32 == 0 and now() - start > LOOP_BUDGET_S:
            break
    return (now() - start) / count if count else 0.0


def _chunks(items: Sequence, size: int) -> List[Sequence]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class LayerProbe:
    """The in-process measurements of one workload's traced run.

    Each group runs only on the workloads its metrics are read on (the
    README's table); the traced line reports the other per-layer keys of
    ``BENCHMARK.json`` as 0 there.
    """

    def __init__(self, inputs: Inputs, workdir: Path, wave_size: int) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.graph = inputs.graph
        self.kind = inputs.workload.kind
        #: Waves the coalescer fed ``query_batch`` in the wire run.
        self.wave_size = max(1, wave_size)
        self.tracer = Tracer()
        self.metrics: Dict[str, float] = {}
        #: Self time by layer, us per call, for each kind of engine call.
        self.budget: Dict[str, Dict[str, float]] = {}
        #: One wire request replayed in-process, and its server-side codec.
        self.engine_us = 0.0
        self.codec_us = 0.0
        if self.kind == "batch":
            rng = np.random.default_rng(inputs.seed + 1)
            vertices = np.fromiter(self.graph.vertices(), dtype=np.int64)
            picks = vertices[rng.integers(0, len(vertices), (20_000, 2))]
            self.pairs: List[Pair] = [
                (int(s), int(t)) for s, t in picks if s != t
            ]
        else:
            src, dst = inputs.point_streams[0]
            self.pairs = list(zip(src[:20_000].tolist(), dst[:20_000].tolist()))

    def run(self) -> None:
        self._indexes()
        journal = self.workdir / "probe.wal" if self.kind == "churn" else None
        with ReachabilityService(self.graph, journal=journal) as svc:
            if self.kind == "batch":
                self._batch_path(svc)
            else:
                self._point_path(svc)
            if self.kind == "churn":
                self._updates(svc)
        if self.inputs.workload.fleet:
            self._shards()

    # ------------------------------------------------------------------
    def _indexes(self) -> None:
        """What every server builds before its first reply."""
        m = self.metrics
        m["service.fastpath.build_s"] = self.inputs.timings["fastpath_build_s"]
        m["graph.labels.build_s"] = self.inputs.timings["labels_build_s"]
        start = now()
        self.csr = CSRSnapshot.freeze(self.graph)
        m["graph.digraph.csr_freeze_ms"] = (now() - start) * 1e3

    def _wrap(self, svc: ReachabilityService) -> None:
        """From here on ``svc``'s layer calls record spans."""
        targets = [
            (svc.pruner, "check", "service.fastpath.check"),
            (svc.pruner, "apply_insert", "service.fastpath.apply_insert"),
            (svc.pruner, "apply_delete", "service.fastpath.apply_delete"),
            (svc.pruner.dag, "insert_edge", "graph.dag.insert_edge"),
            (svc.pruner.dag, "delete_edge", "graph.dag.delete_edge"),
            (svc.labels, "check", "graph.labels.check"),
            (svc.labels, "filter_pairs", "graph.labels.query_many"),
            (svc.labels, "note_insert", "graph.labels.note_insert"),
            (svc.labels, "note_delete", "graph.labels.note_delete"),
            (svc.cache, "get", "service.cache.get"),
            (svc.cache, "put_many", "service.cache.put_many"),
            (svc.method.engine, "query_with_stats", "core.ifca.query"),
        ]
        if svc.journal is not None:
            targets += [
                (svc.journal, "record_insert", "graph.journal.append"),
                (svc.journal, "record_delete", "graph.journal.append"),
            ]
        for obj, attr, name in targets:
            self.tracer.wrap(obj, attr, name)

    def _self_times(self, kind: str, per: int = 1) -> None:
        """``budget[kind]``: self us by layer per ``service.engine.<kind>``
        call (``per`` requests to a call)."""
        roots = self.tracer.roots(f"service.engine.{kind}")
        totals: Dict[str, float] = defaultdict(float)
        for root in roots:
            for name, seconds in self.tracer.self_times(root).items():
                totals[name] += seconds
        scale = 1e6 / (len(roots) * per) if roots else 0.0
        self.budget[kind] = {n: s * scale for n, s in totals.items()}

    def _point_path(self, svc: ReachabilityService) -> None:
        """One point query: probes, the engine ladder, the wire format."""
        m, inputs, tracer = self.metrics, self.inputs, self.tracer
        pairs = self.pairs
        m["service.fastpath.check_us"] = per_call(inputs.pruner.check, pairs) * 1e6
        m["service.fastpath.abstain_share"] = sum(
            inputs.pruner.check(s, t) is None for s, t in pairs[:5000]
        ) / min(len(pairs), 5000)
        m["graph.labels.check_us"] = per_call(inputs.labels.check, pairs) * 1e6

        # The point stream in waves of the size the coalescer produced.
        waves = _chunks(pairs, self.wave_size)
        svc.query_batch(waves[-1])  # first CSR freeze, off the clock
        seconds = per_call(svc.query_batch, ((w,) for w in waves))
        self.engine_us = m["service.engine.query_us"] = seconds * 1e6 / self.wave_size
        outcomes = svc.query_batch(pairs[:2000])
        self._wrap(svc)
        for wave in waves[: max(1, 4000 // self.wave_size)]:
            with tracer.span("service.engine.query"):
                svc.query_batch(wave)
        self._self_times("query", self.wave_size)

        queries = [
            {"type": protocol.QUERY, "id": i, "s": s, "t": t}
            for i, (s, t) in enumerate(pairs[:2000])
        ]

        def encode_result(i: int, outcome) -> bytes:
            return protocol.encode({
                "type": protocol.RESULT, "id": i,
                **protocol.outcome_to_wire(outcome),
            })

        query_frames = [protocol.encode(q) for q in queries]
        result_frames = [encode_result(i, o) for i, o in enumerate(outcomes)]
        encode_request_us = per_call(protocol.encode, ((q,) for q in queries)) * 1e6
        encode_reply_us = per_call(encode_result, enumerate(outcomes)) * 1e6
        decode_request_us = _decode_us(query_frames, None)
        decode_reply_us = _decode_us(result_frames, protocol.outcome_from_wire)
        self.codec_us = decode_request_us + encode_reply_us
        m["net.protocol.encode_query_us"] = encode_request_us + encode_reply_us
        m["net.protocol.decode_query_us"] = decode_request_us + decode_reply_us
        m["net.protocol.bytes_per_query"] = float(
            statistics.fmean(map(len, query_frames))
            + statistics.fmean(map(len, result_frames))
        )

    def _batch_path(self, svc: ReachabilityService) -> None:
        """One 1024-pair frame: prefilters, planner, kernels, the engine,
        the wire format."""
        m, inputs, tracer = self.metrics, self.inputs, self.tracer
        frames, labels = inputs.frames, inputs.labels
        src = np.array([p[0] for p in self.pairs], dtype=np.int64)
        dst = np.array([p[1] for p in self.pairs], dtype=np.int64)
        start = now()
        verdicts = labels.query_many(src, dst)
        m["graph.labels.query_many_us_per_pair"] = (
            (now() - start) * 1e6 / len(self.pairs)
        )
        m["graph.labels.abstain_share"] = float((verdicts == 0).mean())

        cache = VersionedQueryCache()

        def get_put(s: int, t: int) -> None:
            if cache.get(s, t) is None:
                cache.put(s, t, True, self.graph.version)

        m["service.cache.get_put_us"] = per_call(get_put, self.pairs) * 1e6
        plan_ms = []
        for pairs in frames[:3]:
            start = now()
            plan_batch(
                pairs, graph=self.graph, check=inputs.pruner.check,
                cache_get=cache.get, label_filter=labels.filter_pairs,
                max_wave_lanes=WAVE_LANES,
            )
            plan_ms.append((now() - start) * 1e3)
        m["service.batcher.plan_batch_ms"] = statistics.median(plan_ms)

        lanes = inputs.searchable[:WAVE_LANES]
        wave_ms, sweep = [], None
        begun = now()
        while len(wave_ms) < 20 and (not wave_ms or now() - begun < LOOP_BUDGET_S):
            start = now()
            _, sweep = bitsearch.csr_bit_bibfs(self.csr, lanes)
            wave_ms.append((now() - start) * 1e3)
        m["graph.bitsearch.wave_ms"] = statistics.median(wave_ms)
        m["graph.bitsearch.layers_per_wave"] = float(sweep.layers)
        m["graph.bitsearch.word_occupancy"] = sweep.occupancy
        m["graph.kernels.bibfs_us"] = per_call(
            lambda s, t: kernels.csr_bibfs(self.csr, s, t), lanes
        ) * 1e6
        ifca = IFCA(self.graph)
        accesses = []
        m["core.ifca.query_ms"] = per_call(
            lambda s, t: accesses.append(
                ifca.query_with_stats(s, t)[1].edge_accesses
            ),
            lanes[:32],
        ) * 1e3
        m["core.ifca.edge_accesses_per_query"] = statistics.fmean(accesses)

        svc.query_batch(frames[-1])  # first CSR freeze, off the clock
        frame_ms = []
        for pairs in frames[:3]:
            start = now()
            outcomes = svc.query_batch(pairs)
            frame_ms.append((now() - start) * 1e3)
        m["service.engine.query_batch_ms"] = statistics.median(frame_ms)
        self.engine_us = statistics.median(frame_ms) * 1e3
        # The scalar ladder, on a frame of the pool nothing here has cached.
        m["service.engine.query_searchable_ms"] = (
            per_call(svc.query, frames[-2][:16]) * 1e3
        )
        self._wrap(svc)
        for pairs in frames[3:5]:
            with tracer.span("service.engine.query_batch"):
                svc.query_batch(pairs)
        for s, t in frames[-2][16:20]:
            with tracer.span("service.engine.query_searchable"):
                svc.query(s, t)
        self._self_times("query_batch")
        self._self_times("query_searchable")

        request_frame = protocol.encode({
            "type": protocol.BATCH, "id": 1, "strategy": "auto",
            "pairs": [[s, t] for s, t in frames[2]],
        })

        def encode_batch_result() -> bytes:
            return protocol.encode({
                "type": protocol.BATCH_RESULT, "id": 1,
                "outcomes": [protocol.outcome_to_wire(o) for o in outcomes],
            })

        reply_frame = encode_batch_result()
        encode_reply_us = per_call(encode_batch_result, [()] * 5) * 1e6
        self.codec_us = _decode_us([request_frame] * 5, None) + encode_reply_us
        m["net.protocol.encode_batch_result_ms"] = encode_reply_us / 1e3
        m["net.protocol.decode_batch_result_ms"] = _decode_us(
            [reply_frame] * 5,
            lambda w: [protocol.outcome_from_wire(o) for o in w["outcomes"]],
        ) / 1e3
        m["net.protocol.bytes_per_frame"] = float(
            len(request_frame) + len(reply_frame)
        )

    def _updates(self, svc: ReachabilityService) -> None:
        """One cycle of the writer's schedule through the (wrapped) engine,
        then the bare substrate. Mutates the graph: runs last."""
        m, tracer, graph = self.metrics, self.tracer, self.graph
        for op, u, v in self.inputs.updates[: len(UPDATE_PATTERN)]:
            name = "insert" if op == "+" else "delete"
            with tracer.span(f"service.engine.{name}"):
                (svc.add_edge if op == "+" else svc.remove_edge)(u, v)
        counters = svc.stats()["counters"]
        m["graph.labels.rebuilds"] = float(
            counters.get("label_rebuilds", 0)
            + counters.get("label_partial_rebuilds", 0)
        )
        inserts = tracer.mean_ms("service.engine.insert")
        deletes = tracer.mean_ms("service.engine.delete")
        n_ins = len(tracer.roots("service.engine.insert"))
        n_del = len(tracer.roots("service.engine.delete"))
        m["service.engine.insert_ms_mean"] = inserts
        m["service.engine.delete_ms_mean"] = deletes
        m["service.engine.update_ms_mean"] = (
            (inserts * n_ins + deletes * n_del) / max(1, n_ins + n_del)
        )
        for name in ("apply_insert", "apply_delete"):
            m[f"service.fastpath.{name}_ms_mean"] = tracer.mean_ms(
                f"service.fastpath.{name}"
            )
        for name in ("insert_edge", "delete_edge"):
            m[f"graph.dag.{name}_ms_mean"] = tracer.mean_ms(f"graph.dag.{name}")
        for name in ("note_insert", "note_delete"):
            m[f"graph.labels.{name}_us"] = (
                tracer.mean_ms(f"graph.labels.{name}") * 1e3
            )
        m["graph.journal.append_us"] = tracer.mean_ms("graph.journal.append") * 1e3
        self._self_times("insert")
        self._self_times("delete")

        fresh = list(dict.fromkeys(
            (u, v) for u, v in self.pairs[:4000]
            if u != v and not graph.has_edge(u, v)
        ))
        m["graph.digraph.add_edge_us"] = per_call(graph.add_edge, fresh) * 1e6
        m["graph.digraph.remove_edge_us"] = per_call(graph.remove_edge, fresh) * 1e6

    def _shards(self) -> None:
        m, graph, frames = self.metrics, self.graph, self.inputs.frames
        start = now()
        plan = partition_graph(graph, 2)
        m["shard.partition.partition_s"] = now() - start
        start = now()
        handles = []
        try:
            for info, sub in zip(plan.shards, plan.subgraphs):
                handles.append(publish_snapshot(
                    CSRSnapshot.freeze(sub),
                    "probe" + segment_name(info.index, plan.version),
                ))
            m["shard.memory.publish_s"] = now() - start
        finally:
            for handle in handles:
                handle.close()
        m["shard.router.classify_pair_us"] = per_call(
            lambda s, t: classify_pair(plan, s, t), self.pairs
        ) * 1e6
        batch_ms = []
        with ShardRouter(graph, 2) as router:
            router.execute_batch(frames[-1])  # first routed batch warms
            for pairs in frames[:3]:
                start = now()
                router.execute_batch(
                    pairs, label_filter=self.inputs.labels.filter_pairs
                )
                batch_ms.append((now() - start) * 1e3)
        m["shard.router.execute_batch_ms"] = statistics.median(batch_ms)


def _decode_us(frames: List[bytes], finish: Optional[Callable]) -> float:
    """Mean microseconds to ``read_frame`` (and ``finish``) one frame."""

    async def drain() -> float:
        reader = asyncio.StreamReader(limit=1 << 26)
        for frame in frames:
            reader.feed_data(frame)
        reader.feed_eof()
        start = now()
        while True:
            message = await protocol.read_frame(reader)
            if message is None:
                break
            if finish is not None:
                finish(message)
        return (now() - start) * 1e6 / len(frames)

    return asyncio.run(drain())
