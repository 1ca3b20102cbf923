"""Edge-balanced graph partitioning along the SCC condensation.

The cut follows the same structural facts IFCA's fast path and the
related condensation indexes (DAGGER) exploit, arranged so that *every*
partition-level verdict the router hands out is exact:

**Topo-contiguous segments are closed.** Order the SCCs topologically
(sources first). Any path between two vertices whose SCCs sit at topo
positions ``p <= q`` only visits SCCs at positions in ``[p, q]`` —
condensation edges strictly increase topo position. So if a shard is a
*contiguous run* of the topo order, a path between two of its vertices
can never leave the shard: intra-shard positives **and negatives** are
provable from the shard's induced subgraph alone. These shards are marked
``closed``.

**Oversized SCCs split into open shards with exact class summaries.**
A single SCC can hold most of the edge volume (scale-free graphs grow a
giant cyclic core), so edge balance forces cutting through it. Inside one
SCC every vertex reaches every other, which buys back what the cut gives
up: reachability *through* the SCC is a property of the whole class, not
of any member. The partitioner runs one forward and one reverse BFS from
the class and records ``reached_from_class`` / ``reaches_class`` — an
O'Reach-style supportive pair anchored at the class. Those two sets
resolve **every** query touching or crossing the class in O(1):

* ``s`` reaches class and class reaches ``t``  →  ``True``;
* ``s`` inside the class: any path from ``s`` starts in the class, so the
  answer is exactly ``t in reached_from_class`` (symmetrically for ``t``
  inside the class);
* consequently the scatter–gather search never has to *enter* a class
  shard — a path through it would have been answered above — so cross
  traffic runs purely over the (small) periphery segments.

The split inside the class itself reuses the community machinery
(:func:`repro.ppr.forward_push` + :func:`repro.community.sweep.sweep_cut`)
to seed each piece with a low-conductance core before balancing it by
BFS growth, keeping cross-piece edges low for the worker waves that do
run inside the class (intra-shard pairs of a class shard are same-SCC and
thus trivially ``True``; the waves serve pairs *entering* the piece in
mixed workloads).

**The shard quotient refutes in O(1).** The K-node quotient DAG of the
shards (class pieces collapse to their class) is tiny; its reachability
closure is precomputed, and ``shard(s)`` not reaching ``shard(t)``
refutes the pair before any search.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.community.sweep import sweep_cut
from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import strongly_connected_components
from repro.ppr.common import PushConfig
from repro.ppr.forward_push import forward_push

#: A component whose out-edge volume exceeds this multiple of the
#: per-shard target is split by community sweep instead of joining a
#: topo-contiguous segment.
SPLIT_FACTOR = 1.5

#: Push-operation cap per community seed — the sweep only needs a local
#: ordering around the seed, not a converged PPR vector.
_PUSH_CAP = 50_000


@dataclass(frozen=True)
class ShardInfo:
    """One shard of the partition."""

    index: int
    vertices: Tuple[int, ...]
    #: Intra-shard verdicts from the shard's induced subgraph are final
    #: (topo-contiguous segment). Class pieces are ``closed=False`` —
    #: their intra answers come from the class rules instead.
    closed: bool
    #: Identifier of the oversized SCC this shard is a piece of, or
    #: ``None`` for a segment shard.
    scc_class: Optional[int]
    #: Sum of member out-degrees (the balance unit; counts each edge once
    #: at its tail).
    edge_volume: int


@dataclass
class ShardPlan:
    """The full partition: assignment, subgraphs, and exact summaries."""

    version: int
    shard_of: Dict[int, int]
    shards: List[ShardInfo]
    #: Induced subgraph per shard (frozen to CSR by the publisher).
    subgraphs: List[DynamicDiGraph]
    #: Per segment shard: tail vertex -> [(head, head_shard)] for cross
    #: edges into *segment* shards only (class shards are never entered
    #: by the router; see the module docstring).
    cross_out: Dict[int, Dict[int, List[Tuple[int, int]]]]
    #: Per segment shard: sorted tails with at least one routed cross
    #: edge — the worker's standing probe set.
    boundary_out: Dict[int, List[int]]
    #: Shard -> frozenset of quotient-reachable shards (closure, incl.
    #: self, through *all* shards including class pieces).
    quotient_reach: Dict[int, FrozenSet[int]]
    #: vertex -> SCC id (Tarjan numbering).
    scc_of: Dict[int, int]
    #: Class id -> vertices that reach the class / are reached from it
    #: (both include the class members themselves).
    reaches_class: Dict[int, FrozenSet[int]]
    reached_from_class: Dict[int, FrozenSet[int]]
    #: Per shard: members with at least one *routed* out-edge (an edge
    #: inside the shard's subgraph, or a cross edge the fixpoint can
    #: traverse). A vertex absent here reaches nothing the router could
    #: ever search, so any non-identity pair from it is an exact ``False``
    #: — answered in O(1), no worker round trip. Mirrored by
    #: :attr:`live_in` on the head side. Sparse peripheries make this the
    #: workhorse rule: a segment can hold thousands of vertices and only
    #: a few hundred edges.
    live_out: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    live_in: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    num_cross_edges: int = 0
    build_seconds: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def summary(self) -> Dict[str, object]:
        """Plain-data description for stats surfaces and logs."""
        return {
            "version": self.version,
            "num_shards": self.num_shards,
            "closed_shards": sum(1 for s in self.shards if s.closed),
            "class_shards": sum(
                1 for s in self.shards if s.scc_class is not None
            ),
            "cross_edges": self.num_cross_edges,
            "edge_volumes": [s.edge_volume for s in self.shards],
            "build_seconds": round(self.build_seconds, 3),
        }


def _bfs_closure(
    graph: DynamicDiGraph, sources: Sequence[int], forward: bool
) -> Set[int]:
    """Plain multi-source BFS closure (includes the sources)."""
    seen: Set[int] = set(sources)
    queue = deque(sources)
    neighbors = graph.out_neighbors if forward else graph.in_neighbors
    while queue:
        u = queue.popleft()
        for v in neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _grow_piece(
    graph: DynamicDiGraph,
    seed: int,
    core: Set[int],
    remaining: Set[int],
    target_volume: int,
) -> List[int]:
    """Grow one balanced piece: community core first, then BFS fill.

    Undirected BFS from ``seed`` restricted to ``remaining``, visiting
    ``core`` members with priority (two-phase frontier), until the piece's
    out-edge volume reaches ``target_volume``. If a frontier exhausts
    before the target (the restricted subgraph went disconnected), growth
    restarts from the highest-degree vertex still remaining — balance is
    authoritative, connectivity best-effort.
    """
    piece: List[int] = []
    volume = 0
    visited: Set[int] = set()
    preferred: deque = deque()
    fallback: deque = deque()
    preferred.append(seed)
    visited.add(seed)

    def _take(v: int) -> None:
        nonlocal volume
        piece.append(v)
        volume += graph.out_degree(v)
        for w in graph.out_neighbors(v):
            if w in remaining and w not in visited:
                visited.add(w)
                (preferred if w in core else fallback).append(w)
        for w in graph.in_neighbors(v):
            if w in remaining and w not in visited:
                visited.add(w)
                (preferred if w in core else fallback).append(w)

    while volume < target_volume:
        if preferred:
            _take(preferred.popleft())
        elif fallback:
            _take(fallback.popleft())
        else:
            rest = remaining.difference(piece)
            if not rest:
                break
            restart = max(rest, key=lambda v: (graph.degree(v), -v))
            visited.add(restart)
            preferred.append(restart)
    return piece


def _split_component(
    graph: DynamicDiGraph, members: List[int], num_pieces: int
) -> List[List[int]]:
    """Cut one oversized SCC into ``num_pieces`` volume-balanced pieces.

    Each piece is seeded by a capped forward push from the highest-degree
    remaining vertex; the best-conductance sweep prefix of that PPR vector
    (clipped to the remaining members) forms the community core, and
    :func:`_grow_piece` balances it to the volume target.
    """
    member_set = set(members)
    total = sum(graph.out_degree(v) for v in members)
    target = max(1, -(-total // num_pieces))
    remaining = set(member_set)
    pieces: List[List[int]] = []
    while remaining and len(pieces) < num_pieces - 1:
        seed = max(remaining, key=lambda v: (graph.degree(v), -v))
        config = PushConfig(alpha=0.15, epsilon=1.0 / max(total, 10))
        state = forward_push(graph, seed, config, max_operations=_PUSH_CAP)
        local_ppr = {
            v: score
            for v, score in state.reserve.items()
            if v in remaining
        }
        core: Set[int] = set()
        if local_ppr:
            cut, _phi = sweep_cut(
                graph, local_ppr, max_size=max(2, 2 * len(members) // num_pieces)
            )
            core = cut & remaining
        core.add(seed)
        piece = _grow_piece(graph, seed, core, remaining, target)
        remaining.difference_update(piece)
        if piece:
            pieces.append(piece)
    if remaining:
        pieces.append(sorted(remaining))
    return [p for p in pieces if p]


def partition_graph(
    graph: DynamicDiGraph,
    num_shards: int,
    *,
    split_factor: float = SPLIT_FACTOR,
) -> ShardPlan:
    """Cut ``graph`` into (about) ``num_shards`` edge-balanced shards.

    The shard count is a target: tiny graphs yield fewer shards (a shard
    is never empty), and splitting an oversized SCC can add a piece. All
    derived facts (quotient closure, class summaries) are exact for
    ``graph`` at its current version.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    started = time.perf_counter()
    version = graph.version

    comps = strongly_connected_components(graph)
    topo = list(reversed(comps))  # sources first: edges go earlier -> later
    scc_of: Dict[int, int] = {}
    for cid, comp in enumerate(comps):
        for v in comp:
            scc_of[v] = cid

    total_volume = graph.num_edges
    target = max(1, -(-total_volume // num_shards))
    split_threshold = int(split_factor * target)

    shards: List[ShardInfo] = []
    shard_of: Dict[int, int] = {}
    class_members: Dict[int, List[int]] = {}

    def _emit(vertices: List[int], closed: bool, scc_class: Optional[int]) -> None:
        index = len(shards)
        volume = sum(graph.out_degree(v) for v in vertices)
        shards.append(
            ShardInfo(index, tuple(vertices), closed, scc_class, volume)
        )
        for v in vertices:
            shard_of[v] = index

    segment: List[int] = []
    segment_volume = 0
    next_class = 0
    for comp in topo:
        comp_volume = sum(graph.out_degree(v) for v in comp)
        if num_shards > 1 and comp_volume > split_threshold:
            # Close the running segment: a segment must never straddle a
            # split class's topo position, or paths between its two halves
            # could pass through the class and break the closed property.
            if segment:
                _emit(segment, True, None)
                segment, segment_volume = [], 0
            class_id = next_class
            next_class += 1
            class_members[class_id] = list(comp)
            pieces = _split_component(
                graph, list(comp), max(2, -(-comp_volume // target))
            )
            for piece in pieces:
                _emit(piece, False, class_id)
            continue
        segment.extend(comp)
        segment_volume += comp_volume
        if segment_volume >= target:
            _emit(segment, True, None)
            segment, segment_volume = [], 0
    if segment:
        _emit(segment, True, None)

    # Induced subgraphs. Every vertex keeps its original id, so worker
    # answers line up with the primary without translation.
    subgraphs = [
        DynamicDiGraph(vertices=info.vertices) for info in shards
    ]
    cross_out: Dict[int, Dict[int, List[Tuple[int, int]]]] = {
        info.index: {} for info in shards
    }
    boundary_sets: Dict[int, Set[int]] = {info.index: set() for info in shards}
    quotient_adj: Dict[int, Set[int]] = {info.index: set() for info in shards}
    live_out_sets: Dict[int, Set[int]] = {info.index: set() for info in shards}
    live_in_sets: Dict[int, Set[int]] = {info.index: set() for info in shards}
    num_cross = 0
    class_shards = {
        info.index for info in shards if info.scc_class is not None
    }
    for u, v in graph.edges():
        su, sv = shard_of[u], shard_of[v]
        if su == sv:
            subgraphs[su].add_edge(u, v)
            live_out_sets[su].add(u)
            live_in_sets[sv].add(v)
            continue
        num_cross += 1
        quotient_adj[su].add(sv)
        if sv in class_shards:
            # Never routed: any path through a split class is answered by
            # the class summaries before the search starts. The tail's
            # liveness is likewise omitted — if its only edges lead into a
            # class, the class rules own every verdict involving it.
            continue
        cross_out[su].setdefault(u, []).append((v, sv))
        boundary_sets[su].add(u)
        live_out_sets[su].add(u)
        live_in_sets[sv].add(v)
    boundary_out = {k: sorted(vs) for k, vs in boundary_sets.items()}

    # Quotient closure (over all shards, class pieces included, so the
    # negative rule accounts for paths through classes).
    quotient_reach: Dict[int, FrozenSet[int]] = {}
    for start in quotient_adj:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in quotient_adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        quotient_reach[start] = frozenset(seen)

    # Exact class summaries: one forward + one reverse BFS per class.
    reaches_class: Dict[int, FrozenSet[int]] = {}
    reached_from_class: Dict[int, FrozenSet[int]] = {}
    for class_id, members in class_members.items():
        reached_from_class[class_id] = frozenset(
            _bfs_closure(graph, members, forward=True)
        )
        reaches_class[class_id] = frozenset(
            _bfs_closure(graph, members, forward=False)
        )

    plan = ShardPlan(
        version=version,
        shard_of=shard_of,
        shards=shards,
        subgraphs=subgraphs,
        cross_out=cross_out,
        boundary_out=boundary_out,
        quotient_reach=quotient_reach,
        scc_of=scc_of,
        reaches_class=reaches_class,
        reached_from_class=reached_from_class,
        live_out={k: frozenset(vs) for k, vs in live_out_sets.items()},
        live_in={k: frozenset(vs) for k, vs in live_in_sets.items()},
        num_cross_edges=num_cross,
        build_seconds=time.perf_counter() - started,
        stats={
            "sccs": len(comps),
            "split_classes": next_class,
            "target_volume": target,
        },
    )
    return plan
