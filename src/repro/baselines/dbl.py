"""DBL — dynamic bidirectional labels (Lyu et al., 2021), insert-only.

A thin adapter over :class:`~repro.graph.labels.LabelIndex`, which packs
DBL's landmark (DL) and bloom (BL) labels into machine words: inserts go
through a :class:`~repro.graph.dag.DynamicDAG` and ``note_insert``, and a
pair the labels abstain on falls back to bidirectional BFS. DBL's labels
are monotone under insertion, which is why DBL "has the inherent drawback
of not being able to handle edge deletions" (Sec. II): deletes raise.
"""

from __future__ import annotations

from repro.baselines.base import ReachabilityMethod
from repro.baselines.bibfs import bibfs_is_reachable
from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph
from repro.graph.labels import LabelIndex


class DBLMethod(ReachabilityMethod):
    """DBL behind the uniform competitor interface (insert-only)."""

    name = "DBL"
    supports_deletions = False

    def __init__(self, graph: DynamicDiGraph) -> None:
        super().__init__(graph)
        self.dag = DynamicDAG(graph)
        self.labels = LabelIndex(self.dag)

    def insert_edge(self, source: int, target: int) -> None:
        if self.dag.insert_edge(source, target):
            self.labels.note_insert(source, target)

    def query(self, source: int, target: int) -> bool:
        self.labels.observe_query()
        verdict = self.labels.check(source, target)
        if verdict is None:
            return bibfs_is_reachable(self.graph, source, target)
        return verdict
