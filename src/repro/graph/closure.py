"""Transitive closure computation via SCC condensation.

The exact all-pairs companion to the per-query engines: condense the
graph, propagate descendant sets over the DAG in reverse topological order
(as Python integer bitsets, so unions are single big-int ORs), and expand
back to vertices. O(n * m / wordsize)-ish — fine for the analog scale, and
the fastest exact oracle available to the test suite and the replay driver
when many queries share one snapshot.
"""

from __future__ import annotations

from typing import Dict

from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import condensation


class TransitiveClosure:
    """An immutable reachability oracle for one snapshot."""

    def __init__(self, graph: DynamicDiGraph) -> None:
        dag, scc_of, components = condensation(graph)
        self._scc_of = scc_of
        self._components = components
        # Tarjan emits reverse topological order: successors of component
        # ``cid`` always carry smaller ids, so one ascending pass suffices.
        masks: Dict[int, int] = {}
        for cid in range(len(components)):
            mask = 1 << cid
            for succ in dag.out_neighbors(cid):
                mask |= masks[succ]
            masks[cid] = mask
        self._masks = masks

    def is_reachable(self, source: int, target: int) -> bool:
        """Whether ``target`` is reachable from ``source`` (False for
        vertices absent from the snapshot)."""
        cs = self._scc_of.get(source)
        ct = self._scc_of.get(target)
        if cs is None or ct is None:
            return False
        return bool(self._masks[cs] >> ct & 1)

    def reachable_count(self, source: int) -> int:
        """How many vertices ``source`` reaches, itself included."""
        cs = self._scc_of.get(source)
        if cs is None:
            return 0
        mask = self._masks[cs]
        total = 0
        cid = 0
        while mask:
            if mask & 1:
                total += len(self._components[cid])
            mask >>= 1
            cid += 1
        return total

    def num_reachable_pairs(self) -> int:
        """The number of ordered reachable pairs ``(u, v)``, u != v.

        The graph's "positive query mass": with the paper's uniform query
        protocol, ``1 - pairs / (n_s * n_t)`` approximates the negative
        ratio.
        """
        total = 0
        for cid, comp in enumerate(self._components):
            total += len(comp) * (self.reachable_count(comp[0]) - 1)
        return total
