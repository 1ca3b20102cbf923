"""Mixed read/write workload generation for the serving engine.

The paper's evaluation alternates update batches and query batches; a
*serving* run instead needs one interleaved operation stream with a
controllable query:update ratio and *skewed* endpoint popularity. Real
reachability traffic concentrates on hubs (the paper's Alibaba
motivating workload; DBL's evaluation makes the same observation), so
endpoints are drawn rank-zipfian over a degree-sorted vertex list: rank
``r`` is picked with weight ``1 / (r + 1) ** SKEW``.

The stream is materialization-consistent: deletions are sampled from
edges that exist at that point of the stream, insertions avoid duplicate
edges, so replaying the stream never hits a no-op update.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.graph.digraph import DynamicDiGraph

#: Operation kinds.
QUERY = "query"
INSERT = "insert"
DELETE = "delete"

#: Rank-zipf exponent of endpoint popularity: realistic hot-set behaviour.
SKEW = 1.0
#: Share of the updates that are deletions.
DELETE_FRACTION = 0.3


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
    seed: Optional[int] = None,
) -> List[Op]:
    """An interleaved stream of ``num_ops`` queries and updates.

    ``graph`` is the starting snapshot; it is **not** mutated (updates
    are staged against a shadow copy so the stream stays consistent).
    Each operation is a query with probability ``query_ratio``; the rest
    split into insertions and deletions (``DELETE_FRACTION``).
    """
    if not 0.0 <= query_ratio <= 1.0:
        raise ValueError("query_ratio must be in [0, 1]")
    rng = random.Random(seed)

    shadow = graph.copy()
    vertices = sorted(
        shadow.vertices(), key=lambda v: (-shadow.degree(v), v)
    )
    if not vertices:
        raise ValueError("cannot generate a workload on an empty graph")
    sampler = _ZipfSampler(vertices, SKEW)
    edge_list = list(shadow.edges())

    ops: List[Op] = []
    while len(ops) < num_ops:
        roll = rng.random()
        if roll < query_ratio or shadow.num_vertices < 2:
            for _ in range(20):  # retries around s == t draws
                s = sampler.sample(rng)
                t = sampler.sample(rng)
                if s != t:
                    ops.append(Op(QUERY, s, t))
                    break
        elif rng.random() < DELETE_FRACTION and edge_list:
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
