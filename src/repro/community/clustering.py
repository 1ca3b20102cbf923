"""Clustering coefficients — the paper's community-discernibility test.

Tab. II categorizes datasets by (global) clustering coefficient ``c``:
graphs with ``c >= 0.01`` are treated as having discernible communities.
Directions are ignored for this statistic (the convention KONECT uses),
i.e. the coefficient is computed on the underlying undirected graph.

The exact computation is O(sum d^2); :func:`sampled_clustering_coefficient`
gives the standard wedge-sampling estimate for larger graphs.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set

from repro.graph.digraph import DynamicDiGraph

#: Tab. II's threshold separating the two dataset categories.
DISCERNIBLE_COMMUNITY_THRESHOLD = 0.01


def _undirected_adjacency(graph: DynamicDiGraph) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in graph.vertices()}
    for u, v in graph.edges():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def global_clustering_coefficient(graph: DynamicDiGraph) -> float:
    """The transitivity ``3 * triangles / wedges`` of the undirected graph."""
    adj = _undirected_adjacency(graph)
    wedges = 0
    closed = 0
    for v, nbrs in adj.items():
        k = len(nbrs)
        if k < 2:
            continue
        nbr_list = list(nbrs)
        for i, a in enumerate(nbr_list):
            adj_a = adj[a]
            for b in nbr_list[i + 1 :]:
                wedges += 1
                if b in adj_a:
                    closed += 1
    if wedges == 0:
        return 0.0
    return closed / wedges


def sampled_clustering_coefficient(
    graph: DynamicDiGraph,
    num_samples: int = 10_000,
    seed: Optional[int] = None,
) -> float:
    """Wedge-sampling estimate of the global clustering coefficient.

    Samples a wedge by picking a uniform random vertex with degree >= 2
    weighted by its wedge count, then checking whether the wedge closes.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    adj = _undirected_adjacency(graph)
    candidates = [(v, len(nbrs)) for v, nbrs in adj.items() if len(nbrs) >= 2]
    if not candidates:
        return 0.0
    weights = [k * (k - 1) // 2 for _, k in candidates]
    total = sum(weights)
    rng = random.Random(seed)
    # Precompute a cumulative table for O(log n) weighted sampling.
    cumulative = []
    running = 0
    for w in weights:
        running += w
        cumulative.append(running)
    import bisect

    closed = 0
    for _ in range(num_samples):
        r = rng.randrange(total)
        idx = bisect.bisect_right(cumulative, r)
        v, _ = candidates[idx]
        nbrs = list(adj[v])
        a, b = rng.sample(nbrs, 2)
        if b in adj[a]:
            closed += 1
    return closed / num_samples


def has_discernible_communities(
    graph: DynamicDiGraph,
    threshold: float = DISCERNIBLE_COMMUNITY_THRESHOLD,
    num_samples: int = 0,
    seed: Optional[int] = None,
) -> bool:
    """Tab. II's categorization: clustering coefficient >= threshold.

    With ``num_samples > 0`` the sampled estimator is used instead of the
    exact O(sum d^2) computation.
    """
    if num_samples > 0:
        coefficient = sampled_clustering_coefficient(graph, num_samples, seed)
    else:
        coefficient = global_clustering_coefficient(graph)
    return coefficient >= threshold
