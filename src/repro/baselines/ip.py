"""IP — independent-permutation (k-min-wise) reachability labels.

Re-implemented from Wei, Yu, Lu, Jin (VLDBJ 2018). A Label+G scheme over
the SCC condensation with three ingredients:

* **k-min-wise labels.** A random permutation assigns each component a
  hash; ``L_out(c)`` keeps the ``k`` smallest hashes among the components
  reachable from ``c`` (computed in reverse topological order), ``L_in``
  symmetrically. If ``s -> t`` then ``Reach_out(t) ⊆ Reach_out(s)``, so any
  element of ``L_out(t)`` smaller than ``max(L_out(s))`` must appear in
  ``L_out(s)`` — violation proves non-reachability (and symmetrically for
  ``L_in``). The test is one-sided: passing it proves nothing.
* **Huge-vertex labels.** The ``h`` highest-degree components store their
  exact ancestor/descendant sets. A query passing through a huge vertex is
  answered immediately; the pruned DFS may then skip huge vertices
  entirely.
* **Level labels.** Topological levels: ``u -> v`` requires
  ``level(u) < level(v)``; ``mu`` caps the stored level (everything deeper
  shares the cap and prunes nothing), reproducing the paper's bounded
  level label.

Queries run a DFS over the DAG pruned by all three conditions — exact
because every prune is a necessary condition. Updates follow the same
closure-change detection as TOL (the published IP maintenance also assumes
SCCs never merge or split): rebuilds happen exactly when the transitive
closure changes, which on the paper's dynamic workloads makes update cost
dominate query cost.

Defaults ``k=2, h=2, mu=100`` follow the paper's Sec. VI-C setting for
sparse snapshots.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.method import ReachabilityMethod
from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import topological_order


def _k_min_union(parts: List[Tuple[float, ...]], k: int) -> Tuple[float, ...]:
    merged = sorted(set().union(*[set(p) for p in parts])) if parts else []
    return tuple(merged[:k])


class IPMethod(ReachabilityMethod):
    """IP behind the uniform competitor interface."""

    name = "IP"
    exact = True
    supports_deletions = True

    def __init__(
        self,
        graph: DynamicDiGraph,
        k: int = 2,
        h: int = 2,
        mu: int = 100,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(graph)
        if k <= 0 or h < 0 or mu <= 0:
            raise ValueError("k, mu must be positive and h non-negative")
        self.k = k
        self.h = h
        self.mu = mu
        self._rng = random.Random(seed)
        self.dag = DynamicDAG(graph)
        self._structure_changed = False
        self.dag.on_merge = lambda merged, new_cid: self._mark_changed()
        self.dag.on_split = lambda old, new: self._mark_changed()
        self.label_out: Dict[int, Tuple[float, ...]] = {}
        self.label_in: Dict[int, Tuple[float, ...]] = {}
        self.level: Dict[int, int] = {}
        self.huge: List[int] = []
        self.huge_desc: Dict[int, Set[int]] = {}
        self.huge_anc: Dict[int, Set[int]] = {}
        self.rebuild_count = 0
        self._build()

    def _mark_changed(self) -> None:
        self._structure_changed = True

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        dag = self.dag.dag
        order = topological_order(dag)
        self._hashes = {c: self._rng.random() for c in dag.vertices()}
        hashes = self._hashes

        # k-min-wise labels by dynamic programming over the topo order.
        self.label_out = {}
        for c in reversed(order):
            parts = [(hashes[c],)]
            parts.extend(self.label_out[w] for w in dag.out_neighbors(c))
            self.label_out[c] = _k_min_union(parts, self.k)
        self.label_in = {}
        for c in order:
            parts = [(hashes[c],)]
            parts.extend(self.label_in[w] for w in dag.in_neighbors(c))
            self.label_in[c] = _k_min_union(parts, self.k)

        # Capped topological levels.
        self.level = {}
        for c in order:
            lvl = 0
            for w in dag.in_neighbors(c):
                lvl = max(lvl, self.level[w] + 1)
            self.level[c] = min(lvl, self.mu)

        # Huge-vertex closures.
        self.huge = sorted(
            dag.vertices(),
            key=lambda c: -(dag.in_degree(c) + dag.out_degree(c)),
        )[: self.h]
        self.huge_desc = {c: self._closure(c, forward=True) for c in self.huge}
        self.huge_anc = {c: self._closure(c, forward=False) for c in self.huge}
        self.rebuild_count += 1

    def _closure(self, start: int, forward: bool) -> Set[int]:
        dag = self.dag.dag
        seen = {start}
        queue = deque([start])
        while queue:
            c = queue.popleft()
            for w in dag.neighbors(c, forward):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    # ------------------------------------------------------------------
    # Updates (closure-change detection, as in TOL)
    # ------------------------------------------------------------------
    def insert_edge(self, source: int, target: int) -> None:
        new_u = not self.graph.has_vertex(source)
        new_v = not self.graph.has_vertex(target)
        already = False
        if not (new_u or new_v):
            already = self._reaches_exact(
                self.dag.component_of(source), self.dag.component_of(target)
            )
        self._structure_changed = False
        self.dag.insert_edge(source, target)
        if already and not self._structure_changed:
            return
        if (new_u or new_v) and not self._structure_changed:
            # A fresh endpoint cannot have merged anything; extend the
            # labels incrementally instead of rebuilding (this is why IP's
            # updates generally beat TOL's).
            self._attach(source, target, new_u, new_v)
            return
        self._build()

    def _attach(self, source: int, target: int, new_u: bool, new_v: bool) -> None:
        """Incremental label extension for an edge with a new endpoint."""
        cu = self.dag.component_of(source)
        cv = self.dag.component_of(target)
        for is_new, c in ((new_u, cu), (new_v, cv)):
            if is_new and c not in self._hashes:
                h = self._rng.random()
                self._hashes[c] = h
                self.label_out[c] = (h,)
                self.label_in[c] = (h,)
                self.level[c] = 0
        if cu == cv:
            return  # self-loop on a fresh vertex: nothing to propagate
        # Levels: keep the invariant level(a) < level(b) for a ~> b.
        if new_v:
            self.level[cv] = min(self.level[cu] + 1, self.mu)
        elif new_u:
            self.level[cu] = self.level[cv] - 1
        # Min-hash labels: cv's cone gains cu's in-set and vice versa.
        self._propagate(cv, self.label_in[cu], self.label_in, forward=True)
        self._propagate(cu, self.label_out[cv], self.label_out, forward=False)
        # Huge closures: the new component joins the relevant cones.
        for x in self.huge:
            if new_v and cu in self.huge_desc[x]:
                self.huge_desc[x].add(cv)
            if new_u and cv in self.huge_anc[x]:
                self.huge_anc[x].add(cu)

    def _propagate(
        self,
        start: int,
        candidates: Tuple[float, ...],
        labels: Dict[int, Tuple[float, ...]],
        forward: bool,
    ) -> None:
        """Merge ``candidates`` into the labels of ``start`` and onward
        through the DAG (downstream for in-labels, upstream for out-labels)
        until nothing changes."""
        dag = self.dag.dag
        queue = deque([(start, candidates)])
        while queue:
            node, incoming = queue.popleft()
            merged = _k_min_union([labels[node], incoming], self.k)
            if merged == labels[node]:
                continue
            labels[node] = merged
            for w in dag.neighbors(node, forward):
                queue.append((w, merged))

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
            return
        if self.dag.dag.has_edge(cu, cv):
            return
        if cv in self._closure_limited(cu):
            return
        self._build()

    def _closure_limited(self, start: int) -> Set[int]:
        return self._closure(start, forward=True)

    # ------------------------------------------------------------------
    # Query: huge-vertex check, then triple-pruned DFS
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> bool:
        if source == target:
            return True
        if source not in self.graph or target not in self.graph:
            return False
        cs = self.dag.component_of(source)
        ct = self.dag.component_of(target)
        return self._reaches_exact(cs, ct)

    def _reaches_exact(self, cs: int, ct: int) -> bool:
        if cs == ct:
            return True
        for x in self.huge:
            if cs in self.huge_anc[x] and ct in self.huge_desc[x]:
                return True
        if self._pruned(cs, ct):
            return False
        dag = self.dag.dag
        huge_set = set(self.huge) - {cs, ct}
        stack = [cs]
        visited = {cs}
        while stack:
            c = stack.pop()
            if c == ct:
                return True
            for w in dag.out_neighbors(c):
                if w in visited or w in huge_set:
                    # Any path through a huge vertex was already decided by
                    # the closure check above.
                    continue
                visited.add(w)
                if not self._pruned(w, ct):
                    stack.append(w)
        return False

    def _pruned(self, c: int, ct: int) -> bool:
        """True when a necessary condition for ``c -> ct`` fails."""
        if c == ct:
            return False
        if self.level[c] >= self.level[ct] and self.level[ct] < self.mu:
            return True
        out_c, out_t = self.label_out[c], self.label_out[ct]
        if out_c and len(out_c) >= self.k:
            ceiling = out_c[-1]
            for value in out_t:
                if value < ceiling and value not in out_c:
                    return True
        in_c, in_t = self.label_in[c], self.label_in[ct]
        if in_t and len(in_t) >= self.k:
            ceiling = in_t[-1]
            for value in in_c:
                if value < ceiling and value not in in_t:
                    return True
        return False
