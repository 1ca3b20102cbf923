"""Mixed read/write workload generation for the serving engine.

The paper's evaluation alternates update batches and query batches; a
*serving* benchmark instead needs one interleaved operation stream with a
controllable query:update ratio and — to make caching measurable at all —
*skewed* endpoint popularity. Real reachability traffic concentrates on
hubs (the paper's Alibaba motivating workload; DBL's evaluation makes the
same observation), so endpoints are drawn rank-zipfian over a
degree-sorted vertex list: rank ``r`` is picked with weight
``1 / (r + 1) ** skew``. ``skew=0`` degenerates to the paper's uniform
protocol; ``skew`` around 1 gives realistic hot-set behavior.

The stream is materialization-consistent: deletions are sampled from
edges that exist at that point of the stream, insertions avoid duplicate
edges, so replaying the stream never hits a no-op update.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.graph.digraph import DynamicDiGraph

PathLike = Union[str, Path]

#: Operation kinds.
QUERY = "query"
INSERT = "insert"
DELETE = "delete"

_KIND_CODE = {QUERY: "Q", INSERT: "I", DELETE: "D"}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}


@dataclass(frozen=True)
class Op:
    """One workload operation: a query or an edge update."""

    kind: str  # QUERY | INSERT | DELETE
    u: int
    v: int

    @property
    def is_query(self) -> bool:
        return self.kind == QUERY


class _ZipfSampler:
    """Rank-zipfian sampling over a fixed preference-ordered population."""

    def __init__(self, population: List[int], skew: float) -> None:
        self.population = population
        weights = [1.0 / (rank + 1) ** skew for rank in range(len(population))]
        self._cum: List[float] = []
        total = 0.0
        for w in weights:
            total += w
            self._cum.append(total)

    def sample(self, rng: random.Random) -> int:
        x = rng.random() * self._cum[-1]
        return self.population[bisect.bisect_left(self._cum, x)]


def generate_mixed_workload(
    graph: DynamicDiGraph,
    num_ops: int,
    *,
    query_ratio: float = 0.9,
    delete_fraction: float = 0.3,
    skew: float = 1.0,
    pair_pool: Optional[int] = None,
    batch_size: Optional[int] = None,
    shard_of: Optional[Dict[int, int]] = None,
    shard_locality: float = 0.0,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> List[Op]:
    """An interleaved stream of ``num_ops`` queries and updates.

    Parameters
    ----------
    graph:
        The starting snapshot; it is **not** mutated (updates are staged
        against a shadow copy so the stream stays consistent).
    query_ratio:
        Probability that each operation is a query (the rest split into
        insertions and, with ``delete_fraction``, deletions).
    skew:
        Rank-zipf exponent for endpoint popularity; 0 = uniform.
    pair_pool:
        When set, queries repeat *whole pairs*: a pool of this many
        ``(s, t)`` pairs is pre-drawn with the skewed endpoint sampler and
        each query picks a pool entry rank-zipfian. Session-like traffic
        re-asks identical questions — this is what makes result caching
        measurable. ``None`` keeps endpoints independent per query.
    batch_size:
        When set, queries arrive in *bursts* of up to this many
        consecutive query ops (capped by ``num_ops``), the arrival shape
        of clients that coalesce requests — what the serving driver's
        batched replay groups into ``query_batch`` calls. The marginal
        query:update mix is unchanged; only the interleaving is burstier.
    shard_of, shard_locality:
        Shard-skew knob for sharded serving benchmarks: ``shard_of``
        maps vertices to shard indices (a
        :attr:`~repro.shard.partition.ShardPlan.shard_of` map) and each
        query is, with probability ``shard_locality``, redrawn so both
        endpoints land in the source's shard — traffic a sharded router
        answers with intra-shard waves instead of cross-shard
        scatter–gather. ``0.0`` (default) leaves endpoints independent;
        real workloads sit in between, since community-local queries are
        exactly what the partitioner's sweep groups together.
    """
    if not 0.0 <= query_ratio <= 1.0:
        raise ValueError("query_ratio must be in [0, 1]")
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("delete_fraction must be in [0, 1]")
    if pair_pool is not None and pair_pool <= 0:
        raise ValueError("pair_pool must be positive")
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if not 0.0 <= shard_locality <= 1.0:
        raise ValueError("shard_locality must be in [0, 1]")
    if rng is None:
        rng = random.Random(seed)

    shadow = graph.copy()
    vertices = sorted(
        shadow.vertices(), key=lambda v: (-shadow.degree(v), v)
    )
    if not vertices:
        raise ValueError("cannot generate a workload on an empty graph")
    sampler = _ZipfSampler(vertices, skew)
    edge_list = list(shadow.edges())

    def draw_pair() -> Optional[Tuple[int, int]]:
        s = sampler.sample(rng)
        t = sampler.sample(rng)
        if (
            shard_of is not None
            and shard_locality > 0.0
            and rng.random() < shard_locality
        ):
            home = shard_of.get(s)
            if home is not None:
                # Redraw the target until it shares the source's shard;
                # give up after a bounded number of tries (tiny shards).
                for _ in range(32):
                    if t != s and shard_of.get(t) == home:
                        break
                    t = sampler.sample(rng)
        return (s, t) if s != t else None

    pool_sampler: Optional[_ZipfSampler] = None
    if pair_pool is not None:
        pairs: List[Tuple[int, int]] = []
        while len(pairs) < pair_pool and len(vertices) >= 2:
            pair = draw_pair()
            if pair is not None:
                pairs.append(pair)
        pool_sampler = _ZipfSampler(list(range(len(pairs))), skew)

    def draw_query() -> Optional[Op]:
        if pool_sampler is not None:
            s, t = pairs[pool_sampler.sample(rng)]
            return Op(QUERY, s, t)
        pair = draw_pair()
        return Op(QUERY, *pair) if pair is not None else None

    # A burst of b queries must be drawn less often than single queries
    # for the marginal query fraction to stay at ``query_ratio``:
    # p*b / (p*b + (1-p)) = q  =>  p = q / (q + b*(1-q)).
    burst_ratio = query_ratio
    if batch_size is not None and 0.0 < query_ratio < 1.0:
        burst_ratio = query_ratio / (
            query_ratio + batch_size * (1.0 - query_ratio)
        )

    ops: List[Op] = []
    while len(ops) < num_ops:
        roll = rng.random()
        if roll < burst_ratio or shadow.num_vertices < 2:
            burst = 1 if batch_size is None else min(batch_size, num_ops - len(ops))
            emitted = 0
            for _ in range(20 * burst):  # retries around s == t draws
                op = draw_query()
                if op is None:
                    continue
                ops.append(op)
                emitted += 1
                if emitted == burst:
                    break
        elif rng.random() < delete_fraction and edge_list:
            index = rng.randrange(len(edge_list))
            u, v = edge_list[index]
            edge_list[index] = edge_list[-1]
            edge_list.pop()
            shadow.remove_edge(u, v)
            ops.append(Op(DELETE, u, v))
        else:
            for _ in range(20):  # retry around existing edges / self-loops
                u = sampler.sample(rng)
                v = sampler.sample(rng)
                if u != v and not shadow.has_edge(u, v):
                    shadow.add_edge(u, v)
                    edge_list.append((u, v))
                    ops.append(Op(INSERT, u, v))
                    break
    return ops


def workload_mix(ops: Iterable[Op]) -> Tuple[int, int, int]:
    """``(queries, insertions, deletions)`` in the stream."""
    queries = inserts = deletes = 0
    for op in ops:
        if op.kind == QUERY:
            queries += 1
        elif op.kind == INSERT:
            inserts += 1
        else:
            deletes += 1
    return queries, inserts, deletes


def save_workload(ops: Iterable[Op], path: PathLike) -> None:
    """Write the stream as ``Q|I|D u v`` lines (``#`` comments allowed)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# mixed reachability workload: Q s t | I u v | D u v\n")
        for op in ops:
            handle.write(f"{_KIND_CODE[op.kind]} {op.u} {op.v}\n")


def load_workload(path: PathLike) -> List[Op]:
    """Read a stream written by :func:`save_workload`."""
    ops: List[Op] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0].upper() not in _CODE_KIND:
                raise ValueError(
                    f"{path}:{lineno}: expected 'Q|I|D u v', got {line!r}"
                )
            ops.append(
                Op(_CODE_KIND[parts[0].upper()], int(parts[1]), int(parts[2]))
            )
    return ops
