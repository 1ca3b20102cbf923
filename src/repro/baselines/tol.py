"""TOL — total-order 2-hop reachability labels (Zhu et al., SIGMOD 2014).

A Label-Only index over the SCC condensation: components are processed in
a total order of decreasing ``(d_in + 1) * (d_out + 1)``; the k-th
component ``h`` runs a pruned forward BFS adding ``h`` to ``L_in`` of every
component it reaches (and a pruned backward BFS for ``L_out``), with the
standard pruned-landmark-labeling prune: stop at any component already
covered by earlier hops. Queries are pure label intersections::

    s -> t   iff   L_out(scc(s)) ∩ L_in(scc(t)) != ∅

Dynamic behaviour. TOL's published maintenance assumes SCCs never merge or
split; on real dynamic graphs that assumption breaks constantly, so (as in
the paper's evaluation, where TOL's update time dominates its query time by
up to five orders of magnitude) updates degenerate to reconstruction. We
reconstruct *only when the transitive closure actually changes*, detected
cheaply:

* intra-SCC insert, or insert between already-reachable components — the
  closure is unchanged, labels stay exact, no rebuild;
* insert creating a new unreached DAG path, or any SCC merge — rebuild;
* delete that leaves the DAG edge multiset or reachability intact (checked
  with one DAG BFS) — no rebuild; otherwise rebuild.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.core.method import ReachabilityMethod
from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph


class TOLMethod(ReachabilityMethod):
    """TOL behind the uniform competitor interface."""

    name = "TOL"
    exact = True
    supports_deletions = True

    def __init__(self, graph: DynamicDiGraph) -> None:
        super().__init__(graph)
        self.dag = DynamicDAG(graph)
        self._structure_changed = False
        self.dag.on_merge = lambda merged, new_cid: self._mark_changed()
        self.dag.on_split = lambda old, new: self._mark_changed()
        self.label_in: Dict[int, Set[int]] = {}
        self.label_out: Dict[int, Set[int]] = {}
        self.rebuild_count = 0
        self._build()

    def _mark_changed(self) -> None:
        self._structure_changed = True

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        dag = self.dag.dag
        self.label_in = {c: set() for c in dag.vertices()}
        self.label_out = {c: set() for c in dag.vertices()}
        order = sorted(
            dag.vertices(),
            key=lambda c: -(dag.in_degree(c) + 1) * (dag.out_degree(c) + 1),
        )
        rank = {c: i for i, c in enumerate(order)}
        for hop in order:
            self._pruned_bfs(hop, rank, forward=True)
            self._pruned_bfs(hop, rank, forward=False)
        self.rebuild_count += 1

    def _pruned_bfs(self, hop: int, rank: Dict[int, int], forward: bool) -> None:
        """Label every component (not pruned) reached from ``hop``."""
        dag = self.dag.dag
        own = self.label_in if forward else self.label_out
        queue = deque([hop])
        visited = {hop}
        while queue:
            c = queue.popleft()
            if c != hop and self._covered(hop, c, forward):
                continue  # an earlier hop already certifies hop ~ c
            own[c].add(hop)
            for w in dag.neighbors(c, forward):
                if w not in visited and rank[w] > rank[hop]:
                    visited.add(w)
                    queue.append(w)

    def _covered(self, hop: int, c: int, forward: bool) -> bool:
        """Whether the pair (hop, c) is already answered by earlier labels."""
        if forward:
            return bool(self.label_out[hop] & self.label_in[c])
        return bool(self.label_out[c] & self.label_in[hop])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        new_u = not self.graph.has_vertex(source)
        new_v = not self.graph.has_vertex(target)
        already = (
            not new_u
            and not new_v
            and self._label_query(
                self.dag.component_of(source), self.dag.component_of(target)
            )
        )
        self._structure_changed = False
        self.dag.insert_edge(source, target)
        if already and not self._structure_changed:
            return  # closure unchanged: labels remain exact
        if new_u or new_v:
            # A fresh singleton with one incident edge: extend labels
            # directly instead of rebuilding everything.
            self._attach_new_components(source, target)
            if not self._structure_changed:
                return
        self._build()

    def delete_edge(self, source: int, target: int) -> None:
        if not self.graph.has_edge(source, target):
            return
        cu = self.dag.component_of(source)
        cv = self.dag.component_of(target)
        self._structure_changed = False
        self.dag.delete_edge(source, target)
        if self._structure_changed:
            self._build()
            return
        if cu == cv:
            return  # SCC survived: closure unchanged
        if self.dag.dag.has_edge(cu, cv):
            return  # parallel original edges keep the DAG edge: unchanged
        if self._dag_bfs_reaches(cu, cv):
            return  # an alternative path preserves the closure
        self._build()

    def _attach_new_components(self, source: int, target: int) -> None:
        for v in (source, target):
            c = self.dag.component_of(v)
            if c not in self.label_in:
                self.label_in[c] = {c}
                self.label_out[c] = {c}
        cu = self.dag.component_of(source)
        cv = self.dag.component_of(target)
        if cu != cv:
            # Everything reaching cu now reaches cv's cone and vice versa;
            # the cheap sound fix for a *leaf* attachment is label union.
            self.label_in[cv] |= self.label_in[cu] | {cu}
            self.label_out[cu] |= self.label_out[cv] | {cv}

    def _dag_bfs_reaches(self, src: int, dst: int) -> bool:
        dag = self.dag.dag
        if src == dst:
            return True
        queue = deque([src])
        visited = {src}
        while queue:
            c = queue.popleft()
            for w in dag.out_neighbors(c):
                if w == dst:
                    return True
                if w not in visited:
                    visited.add(w)
                    queue.append(w)
        return False

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> bool:
        if source == target:
            return True
        if source not in self.graph or target not in self.graph:
            return False
        cs = self.dag.component_of(source)
        ct = self.dag.component_of(target)
        if cs == ct:
            return True
        return self._label_query(cs, ct)

    def _label_query(self, cs: int, ct: int) -> bool:
        if cs == ct:
            return True
        out_s = self.label_out.get(cs)
        in_t = self.label_in.get(ct)
        if out_s is None or in_t is None:
            return False
        return bool(out_s & in_t) or ct in out_s or cs in in_t