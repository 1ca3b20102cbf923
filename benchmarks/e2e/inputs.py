"""Seeded inputs for the four serving workloads.

Everything the server will see is generated here, up front. The graph,
the searchable pair pool and the set of scheduled updates are fixed
populations (seed 3): which 16 384 pairs or which 15 deleted edges a run
draws moves its total work by 10-15 %, and that is not what ``--seed``
is for. ``--seed`` draws the point streams and decides the *order* in
which the pool and the updates are sent, so every seed does the same
work in a different sequence. Streams are sized so they never wrap
inside a run; the only recycled input is the batch pool, which is cycled
in order and is 4x the server's result-cache capacity so LRU never hits.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.scale_free import preferential_attachment_graph
from repro.graph.digraph import DynamicDiGraph
from repro.graph.labels import LabelIndex
from repro.graph.traversal import bfs_reachable, reverse_bfs_reachable
from repro.service.fastpath import FastPathPruner

Pair = Tuple[int, int]
Update = Tuple[str, int, int]  # ("+" | "-", u, v)

GRAPH_SEED = 3
#: ``ReachabilityService`` default; the pool must stay >= 4x this.
RESULT_CACHE_CAPACITY = 4096
#: ``repro serve`` defaults the bench-side pruner must mirror so that
#: "searchable" here means "reaches the search rung" there.
SERVE_SUPPORTIVE = 4
SERVE_SEED = 0
#: Closed-loop point streams are generated for this rate; a run that
#: drains one is reported as failed (raise the cap, never wrap).
POINT_RATE_CAP = 100_000
#: One insert/delete cycle of the churn writer: 70 % insert, 30 % delete,
#: in fixed positions so every seed schedules the same op kinds at the
#: same points of the stream.
UPDATE_PATTERN = "++-+++-++-"
#: The churn mix: one update per this many completed reads (about five
#: updates a second on the reference host in its fast state).
READS_PER_UPDATE = 2500
#: Seeds reorder updates only inside blocks of this many, so whichever
#: seed, a run performs the same updates up to its last, partial block.
UPDATE_BLOCK = 6 * len(UPDATE_PATTERN)
#: Uniform pairs drawn before mining the searchable pool gives up.
MINE_MAX_DRAWS = 1 << 26


@dataclass(frozen=True)
class Sizes:
    """Graph and stream sizes; ``SMOKE`` shrinks everything for CI."""

    hot_n: int
    sparse_n: int
    churn_n: int
    frame: int
    pool_frames: int
    warmup_s: float


FULL = Sizes(
    hot_n=50_000,
    sparse_n=50_000,
    churn_n=10_000,
    frame=1024,
    pool_frames=4 * RESULT_CACHE_CAPACITY // 1024,
    warmup_s=2.0,
)
SMOKE = Sizes(
    hot_n=2_000,
    sparse_n=2_000,
    churn_n=2_000,
    frame=128,
    pool_frames=4,
    warmup_s=0.5,
)


@dataclass(frozen=True)
class Workload:
    """What distinguishes the four; why each exists is in BENCHMARK.json."""

    name: str
    kind: str  # "point" | "batch" | "churn"
    graph: str  # "dense" | "sparse"
    serve_flags: Tuple[str, ...]

    @property
    def fleet(self) -> bool:
        """Served by shard worker processes, not by one process."""
        flags = self.serve_flags
        return "--shards" in flags and int(flags[flags.index("--shards") + 1]) >= 2


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("point_hot", "point", "dense", ()),
        Workload("batch_search", "batch", "sparse", ("--shards", "0")),
        Workload("batch_search_fleet", "batch", "sparse", ("--shards", "2")),
        Workload("churn_point", "churn", "dense", ("--journal", "{journal}")),
    )
}


def dense_graph(n: int) -> DynamicDiGraph:
    """The repo's standard scale-free graph with a giant SCC."""
    return preferential_attachment_graph(
        n, 12, reciprocal=0.08, seed=GRAPH_SEED
    )


def sparse_graph(n: int) -> DynamicDiGraph:
    """Same family, small SCCs: most uniform pairs need a search."""
    return preferential_attachment_graph(
        n, 3, reciprocal=0.02, seed=GRAPH_SEED
    )


@dataclass
class Inputs:
    workload: Workload
    sizes: Sizes
    seed: int
    graph: DynamicDiGraph
    #: Point streams, one (sources, targets) array pair per connection.
    point_streams: List[Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list
    )
    #: The batch pool as frames of ``sizes.frame`` pairs.
    frames: List[List[Pair]] = field(default_factory=list)
    updates: List[Update] = field(default_factory=list)
    #: The batch pool: pairs no index rung answers, in the order sent.
    searchable: List[Pair] = field(default_factory=list)
    pruner: Optional[FastPathPruner] = None
    labels: Optional[LabelIndex] = None
    timings: Dict[str, float] = field(default_factory=dict)
    hashes: Dict[str, str] = field(default_factory=dict)


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _zipf_endpoints(
    graph: DynamicDiGraph, skew: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Rank-zipf over degree-sorted vertices: the ``workloads.mixed``
    endpoint distribution (weight ``1/(rank+1)**skew``), vectorized so a
    million-op stream costs milliseconds. ``skew=0`` is uniform."""
    vertices = np.array(
        sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v)),
        dtype=np.int64,
    )
    weights = 1.0 / np.arange(1, len(vertices) + 1, dtype=np.float64) ** skew
    cum = np.cumsum(weights)
    ranks = np.searchsorted(cum, rng.random(count) * cum[-1], side="left")
    return vertices[np.minimum(ranks, len(vertices) - 1)]


def point_streams(
    graph: DynamicDiGraph,
    skew: float,
    count: int,
    connections: int,
    rng: np.random.Generator,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    src = _zipf_endpoints(graph, skew, count, rng)
    dst = _zipf_endpoints(graph, skew, count, rng)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return [(src[c::connections], dst[c::connections]) for c in range(connections)]


def mine_searchable(
    graph: DynamicDiGraph,
    pruner: FastPathPruner,
    labels: LabelIndex,
    want: int,
    rng: np.random.Generator,
) -> List[Pair]:
    """Distinct uniform pairs on which both the label tier and the fast
    path abstain, i.e. pairs the server must search for."""
    vertices = np.fromiter(graph.vertices(), dtype=np.int64)
    found: Dict[Pair, None] = {}
    drawn = 0
    chunk = 1 << 19
    while len(found) < want and drawn < MINE_MAX_DRAWS:
        src = vertices[rng.integers(0, len(vertices), chunk)]
        dst = vertices[rng.integers(0, len(vertices), chunk)]
        drawn += chunk
        abstain = (labels.query_many(src, dst) == 0) & (src != dst)
        for s, t in zip(src[abstain].tolist(), dst[abstain].tolist()):
            if pruner.check(s, t) is None:
                found[(s, t)] = None
                if len(found) == want:
                    break
    return list(found)


def core_of(graph: DynamicDiGraph) -> Tuple[set, set]:
    """What the top-degree hub reaches and what reaches it; the
    intersection is the giant SCC on the dense graph."""
    hub = max(graph.vertices(), key=lambda v: (graph.degree(v), -v))
    return bfs_reachable(graph, hub), reverse_bfs_reachable(graph, hub)


def update_schedule(
    graph: DynamicDiGraph, count: int, rng: random.Random
) -> List[Update]:
    """``count`` effective updates following ``UPDATE_PATTERN``.

    Inserts are uniform non-edges; deletes are distinct edges *inside the
    giant SCC*, the expensive case (each one re-derives the component in
    ``graph.dag``). Fixing the kind sequence and the delete class keeps
    the write load the same from run to run, so reader throughput beside
    the writer is comparable between runs.
    """
    fwd, bwd = core_of(graph)
    core = fwd & bwd
    core_edges = [(u, v) for u, v in graph.edges() if u in core and v in core]
    vertices = list(graph.vertices())
    deletes = iter(rng.sample(core_edges, min(len(core_edges), count)))
    inserted = set()
    ops: List[Update] = []
    for i in range(count):
        if UPDATE_PATTERN[i % len(UPDATE_PATTERN)] == "-":
            u, v = next(deletes)
            ops.append(("-", u, v))
            continue
        while True:
            u, v = rng.choice(vertices), rng.choice(vertices)
            if u != v and not graph.has_edge(u, v) and (u, v) not in inserted:
                inserted.add((u, v))
                ops.append(("+", u, v))
                break
    return ops


def _reordered(ops: List[Update], rng: random.Random) -> List[Update]:
    """The same ops, block by block, with inserts shuffled among the
    insert slots and deletes among the delete slots (any order is valid:
    deletes are initial edges, inserts are initial non-edges, all
    distinct)."""
    out: List[Update] = []
    for at in range(0, len(ops), UPDATE_BLOCK):
        block = ops[at : at + UPDATE_BLOCK]
        by_kind = {k: [o for o in block if o[0] == k] for k in "+-"}
        for group in by_kind.values():
            rng.shuffle(group)
        out += [by_kind[op].pop() for op, _, _ in block]
    return out


def build_inputs(
    workload: Workload,
    sizes: Sizes,
    seed: int,
    seconds: float,
    connections: int,
    *,
    for_probes: bool,
) -> Inputs:
    """Generate one workload's inputs; ``for_probes`` also builds the
    bench-side indexes the traced run's layer probes time."""
    if workload.graph == "sparse":
        graph = sparse_graph(sizes.sparse_n)
    else:
        graph = dense_graph(
            sizes.churn_n if workload.kind == "churn" else sizes.hot_n
        )
    inputs = Inputs(workload, sizes, seed, graph)
    rng = np.random.default_rng(seed)
    span_s = sizes.warmup_s + seconds

    if workload.kind != "batch":
        skew = 1.0 if workload.kind == "point" else 0.0
        count = int(POINT_RATE_CAP * span_s)
        inputs.point_streams = point_streams(
            graph, skew, count, connections, rng
        )
        inputs.hashes["point_stream"] = _sha(
            *[a for stream in inputs.point_streams for a in stream]
        )

    if workload.kind == "batch" or for_probes:
        started = time.perf_counter()
        inputs.pruner = FastPathPruner(
            graph, num_supportive=SERVE_SUPPORTIVE, seed=SERVE_SEED
        )
        inputs.timings["fastpath_build_s"] = time.perf_counter() - started
        started = time.perf_counter()
        inputs.labels = LabelIndex(graph)
        inputs.timings["labels_build_s"] = time.perf_counter() - started
    if workload.kind == "batch":
        pool = sizes.frame * sizes.pool_frames
        mined = mine_searchable(
            graph, inputs.pruner, inputs.labels, pool,
            np.random.default_rng(GRAPH_SEED),
        )
        if len(mined) < pool:
            raise RuntimeError(f"mined {len(mined)} searchable pairs, need {pool}")
        inputs.searchable = [mined[i] for i in rng.permutation(pool)]
        inputs.frames = [
            inputs.searchable[i : i + sizes.frame]
            for i in range(0, pool, sizes.frame)
        ]
        inputs.hashes["pair_pool"] = _sha(np.array(inputs.searchable))

    if workload.kind == "churn":
        count = int(POINT_RATE_CAP * span_s) // READS_PER_UPDATE
        inputs.updates = _reordered(
            update_schedule(graph, count, random.Random(GRAPH_SEED)),
            random.Random(seed),
        )
        inputs.hashes["update_stream"] = _sha(
            np.array([(op == "+", u, v) for op, u, v in inputs.updates])
        )
    return inputs
