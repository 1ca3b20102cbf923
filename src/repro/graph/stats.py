"""Descriptive statistics for graph snapshots.

One call summarizes everything Tab. II reports about a graph plus the
structural quantities the cost model and the analysis lean on (degree
tail, SCC structure, reachable-pair mass). Backs ``python -m repro stats``
and the dataset-characterization tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.community.clustering import (
    DISCERNIBLE_COMMUNITY_THRESHOLD,
    global_clustering_coefficient,
    sampled_clustering_coefficient,
)
from repro.community.powerlaw import fit_power_law_exponent
from repro.graph.closure import TransitiveClosure
from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import strongly_connected_components


@dataclass(frozen=True)
class GraphSummary:
    """A snapshot's headline statistics."""

    num_vertices: int
    num_edges: int
    average_degree: float
    max_out_degree: int
    max_in_degree: int
    num_sccs: int
    largest_scc: int
    clustering_coefficient: float
    has_discernible_communities: bool
    degree_tail_exponent: float
    reachable_pair_fraction: float

def summarize(
    graph: DynamicDiGraph,
    exact_clustering: bool = True,
    clustering_samples: int = 20_000,
    seed: Optional[int] = 0,
) -> GraphSummary:
    """Compute a :class:`GraphSummary` for the snapshot.

    ``exact_clustering=False`` switches to wedge sampling (for larger
    graphs). The reachable-pair fraction uses the bitset transitive
    closure, so expect O(n*m/64) work.
    """
    n = graph.num_vertices
    if n == 0:
        return GraphSummary(0, 0, 0.0, 0, 0, 0, 0, 0.0, False, 3.0, 0.0)
    degrees = [graph.degree(v) for v in graph.vertices()]
    components = strongly_connected_components(graph)
    if exact_clustering:
        clustering = global_clustering_coefficient(graph)
    else:
        clustering = sampled_clustering_coefficient(
            graph, num_samples=clustering_samples, seed=seed
        )
    closure = TransitiveClosure(graph)
    pairs = closure.num_reachable_pairs()
    possible = n * (n - 1)
    return GraphSummary(
        num_vertices=n,
        num_edges=graph.num_edges,
        average_degree=graph.average_degree,
        max_out_degree=max(graph.out_degree(v) for v in graph.vertices()),
        max_in_degree=max(graph.in_degree(v) for v in graph.vertices()),
        num_sccs=len(components),
        largest_scc=max(len(c) for c in components),
        clustering_coefficient=clustering,
        has_discernible_communities=(
            clustering >= DISCERNIBLE_COMMUNITY_THRESHOLD
        ),
        degree_tail_exponent=fit_power_law_exponent(degrees),
        reachable_pair_fraction=pairs / possible if possible else 0.0,
    )
