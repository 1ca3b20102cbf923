"""Traversal primitives: BFS reachability, distances, topological order,
and edge-access counting.

These are the structure-agnostic tools the paper contrasts IFCA against
(Sec. IV). ``is_reachable_bfs`` is the trusted ground-truth oracle used
throughout the test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.graph.digraph import DynamicDiGraph


def bfs_reachable(graph: DynamicDiGraph, source: int) -> Set[int]:
    """All vertices reachable from ``source`` (including itself)."""
    return _directional_reachable(graph, source, forward=True)


def reverse_bfs_reachable(graph: DynamicDiGraph, target: int) -> Set[int]:
    """All vertices that can reach ``target`` (including itself)."""
    return _directional_reachable(graph, target, forward=False)


def _directional_reachable(
    graph: DynamicDiGraph, start: int, forward: bool
) -> Set[int]:
    if start not in graph:
        return set()
    visited = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u, forward):
            if v not in visited:
                visited.add(v)
                queue.append(v)
    return visited


def is_reachable_bfs(graph: DynamicDiGraph, source: int, target: int) -> bool:
    """Ground-truth reachability via unidirectional BFS with early exit."""
    if source not in graph or target not in graph:
        return False
    if source == target:
        return True
    visited = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u):
            if v == target:
                return True
            if v not in visited:
                visited.add(v)
                queue.append(v)
    return False


def bfs_distances(
    graph: DynamicDiGraph, source: int, forward: bool = True
) -> Dict[int, int]:
    """Hop distances from ``source`` to every reachable vertex."""
    if source not in graph:
        return {}
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u, forward):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_edge_access_trace(
    graph: DynamicDiGraph, source: int, target: Optional[int] = None
) -> List[int]:
    """The sequence of visited vertices, one entry per *edge access*.

    Used by the Fig. 1 reproduction, where the x-axis is the number of edge
    accesses. Each scan of an out-neighbor counts as one access; the list
    entry is the endpoint of the accessed edge. Stops early when ``target``
    is accessed.
    """
    trace: List[int] = []
    if source not in graph:
        return trace
    visited = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u):
            trace.append(v)
            if v == target:
                return trace
            if v not in visited:
                visited.add(v)
                queue.append(v)
    return trace


def topological_order(graph: DynamicDiGraph) -> List[int]:
    """Kahn topological order; raises ``ValueError`` if the graph has a cycle."""
    indeg = {v: graph.in_degree(v) for v in graph.vertices()}
    queue = deque(v for v, d in indeg.items() if d == 0)
    order: List[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in graph.out_neighbors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != graph.num_vertices:
        raise ValueError("graph contains a cycle; no topological order exists")
    return order


def estimate_diameter(
    graph: DynamicDiGraph, samples: Iterable[int]
) -> int:
    """A lower-bound diameter estimate: max BFS eccentricity over samples.

    Used by the ARROW re-implementation to size its walk length.
    """
    best = 0
    for s in samples:
        dist = bfs_distances(graph, s)
        if dist:
            best = max(best, max(dist.values()))
    return best
