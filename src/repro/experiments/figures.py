"""The Fig. 1 motivating example: frontier expansion in edge accesses.

Reproduces the paper's comparison on the Highschool(-like) graph: BFS vs
the push baseline (Alg. 1) at two epsilon values, for one intra-community
and one inter-community query. The metric is the number of *edge accesses*
until the destination is reached (or the method gives up), "the main
factor influencing the query processing time of these methods".
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.baseline import push_reachability
from repro.core.stats import QueryStats
from repro.datasets.highschool import (
    INTER_DESTINATION,
    INTRA_DESTINATION,
    SOURCE,
    highschool_graph,
)
from repro.graph.traversal import bfs_edge_access_trace


#: The two push thresholds of Fig. 1, and the teleport constant.
EPSILON_LARGE, EPSILON_SMALL, ALPHA = 1e-2, 1e-4, 0.1


def run_motivating_example() -> List[Dict[str, Any]]:
    """Fig. 1 rows: edge accesses per (method, query-type) cell; the
    paper's expected shape is ``reproduce.FIG01_CLAIMS``."""
    graph = highschool_graph()
    queries = [
        ("intra-community", SOURCE, INTRA_DESTINATION),
        ("inter-community", SOURCE, INTER_DESTINATION),
    ]
    rows: List[Dict[str, Any]] = []
    for kind, source, destination in queries:
        trace = bfs_edge_access_trace(graph, source, destination)
        reached_bfs = bool(trace) and trace[-1] == destination
        rows.append(
            {
                "query": kind,
                "method": "BFS",
                "epsilon": None,
                "edge_accesses": len(trace),
                "reached": reached_bfs,
            }
        )
        for label, eps in (("large", EPSILON_LARGE), ("small", EPSILON_SMALL)):
            stats = QueryStats()
            reached = push_reachability(
                graph, source, destination, alpha=ALPHA, epsilon=eps, stats=stats
            )
            rows.append(
                {
                    "query": kind,
                    "method": f"Baseline@eps-{label}",
                    "epsilon": eps,
                    "edge_accesses": stats.guided_edge_accesses,
                    "reached": reached,
                }
            )
    return rows
