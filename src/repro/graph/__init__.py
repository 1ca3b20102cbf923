"""Graph substrate: dynamic directed graphs, traversals, SCCs, DAG maintenance, I/O."""

from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import condensation, strongly_connected_components
from repro.graph.dag import DynamicDAG
from repro.graph.closure import TransitiveClosure
from repro.graph.traversal import (
    bfs_distances,
    bfs_reachable,
    is_reachable_bfs,
    reverse_bfs_reachable,
)
from repro.graph.snapshot import CSRSnapshot
from repro.graph.labels import LabelIndex

__all__ = [
    "DynamicDiGraph",
    "DynamicDAG",
    "TransitiveClosure",
    "CSRSnapshot",
    "LabelIndex",
    "strongly_connected_components",
    "condensation",
    "bfs_reachable",
    "reverse_bfs_reachable",
    "bfs_distances",
    "is_reachable_bfs",
]
