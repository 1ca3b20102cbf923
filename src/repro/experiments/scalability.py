"""Scalability study — Fig. 10 (Sec. VI-D).

Two-block SBM snapshots varying the block size and the average degree,
with ``epsilon_pre`` fixed (the paper pins 1e-4 "to expose the effect of
the synthetic graphs' scale"). The paper's observed shape: query time
grows with the number of vertices but *falls* slightly with density, for
two measured reasons reproduced here — the negative-query ratio drops on
denser graphs and positive pairs get closer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core.ifca import IFCA
from repro.core.params import IFCAParams
from repro.datasets.sbm import two_block_sbm
from repro.experiments.runner import time_queries_ms
from repro.graph.traversal import bfs_distances
from repro.workloads.queries import generate_queries, label_queries


def run_scalability(
    block_sizes: Sequence[int],
    average_degrees: Sequence[float],
    num_queries: int = 60,
    epsilon_pre: float = 1e-4,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Fig. 10 rows: avg query time per (block size, average degree),
    plus the explanatory statistics (negative ratio, positive distance)."""
    base = IFCAParams()
    params = base.with_overrides(
        epsilon_pre=epsilon_pre, epsilon_init=100.0 * epsilon_pre
    )
    rows: List[Dict[str, Any]] = []
    for block_size in block_sizes:
        for degree in average_degrees:
            graph = two_block_sbm(block_size, degree, seed=seed)
            batch = label_queries(
                graph, generate_queries(graph, num_queries, seed=seed + 1)
            )
            engine = IFCA(graph, params)
            avg_ms = time_queries_ms(engine.is_reachable, batch.queries)
            rows.append(
                {
                    "block_size": block_size,
                    "avg_degree": degree,
                    "n": graph.num_vertices,
                    "m": graph.num_edges,
                    "avg_query_time_ms": avg_ms,
                    "negative_fraction": batch.negative_fraction,
                    "avg_positive_distance": _avg_positive_distance(graph, batch),
                }
            )
    return rows


def _avg_positive_distance(graph, batch) -> float:
    """Average hop distance over the positive queries (the paper's second
    explanatory factor), with per-source BFS memoization."""
    cache: Dict[int, Dict[int, int]] = {}
    total = 0
    count = 0
    for (s, t), positive in zip(batch.queries, batch.ground_truth):
        if not positive:
            continue
        if s not in cache:
            cache[s] = bfs_distances(graph, s)
        total += cache[s].get(t, 0)
        count += 1
    return total / count if count else 0.0
