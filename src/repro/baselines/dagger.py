"""DAGGER — incremental DAG maintenance + interval labels + pruned DFS.

Re-implemented from Yildirim, Chaoji, Zaki (2013). DAGGER keeps the SCC
condensation up to date under edge insertions and deletions (our
:class:`~repro.graph.dag.DynamicDAG` substrate) and prunes a unidirectional
DFS over the DAG with GRAIL-style interval labels: ``k`` independent
post-order traversals assign each component an interval, and
``u -> ... -> v`` requires ``interval_i(v) ⊆ interval_i(u)`` for every i.

Dynamic label maintenance follows DAGGER's over-approximation strategy:

* edge insert — widen the source component's intervals to cover the
  target's and propagate the widening to all ancestors;
* SCC merge — the merged component takes the union of its parts' intervals
  (then propagates);
* edge delete / SCC split — intervals are left as-is: they remain valid
  over-approximations (reachability only shrank), merely pruning less.

Since intervals are only ever a *necessary* condition and the DFS does the
actual deciding, queries stay exact no matter how loose the intervals get;
``rebuild_every`` updates trigger a fresh labeling to restore pruning
power. The paper's evaluation notes DAGGER's pruned unidirectional DFS
often loses to BiBFS — reproducing that behaviour is the point.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.core.method import ReachabilityMethod
from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph

Interval = Tuple[int, int]


class DaggerMethod(ReachabilityMethod):
    """DAGGER behind the uniform competitor interface."""

    name = "DAGGER"
    exact = True
    supports_deletions = True

    def __init__(
        self,
        graph: DynamicDiGraph,
        num_labels: int = 2,
        rebuild_every: int = 512,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(graph)
        if num_labels <= 0:
            raise ValueError("num_labels must be positive")
        self.num_labels = num_labels
        self.rebuild_every = rebuild_every
        self._rng = random.Random(seed)
        self.dag = DynamicDAG(graph)
        self.dag.on_merge = self._handle_merge
        self.dag.on_split = self._handle_split
        # labels[i][cid] = (lo, hi) for traversal i.
        self.labels: List[Dict[int, Interval]] = []
        self._updates_since_rebuild = 0
        self._next_post = 0
        self._build_labels()

    # ------------------------------------------------------------------
    # Label construction
    # ------------------------------------------------------------------
    def _build_labels(self) -> None:
        self.labels = [
            self._one_traversal() for _ in range(self.num_labels)
        ]
        self._updates_since_rebuild = 0

    def _one_traversal(self) -> Dict[int, Interval]:
        """One randomized post-order labeling of the current DAG."""
        dag = self.dag.dag
        post: Dict[int, int] = {}
        low: Dict[int, int] = {}
        counter = 0
        visited: Set[int] = set()
        roots = [c for c in dag.vertices() if dag.in_degree(c) == 0]
        others = [c for c in dag.vertices() if dag.in_degree(c) > 0]
        self._rng.shuffle(roots)
        order = roots + others  # cover non-root components of cyclic leftovers
        for root in order:
            if root in visited:
                continue
            # Iterative DFS computing post-order ranks and subtree minima.
            stack: List[Tuple[int, int, List[int]]] = [
                (root, 0, self._shuffled_children(root))
            ]
            visited.add(root)
            while stack:
                node, idx, children = stack[-1]
                if idx < len(children):
                    stack[-1] = (node, idx + 1, children)
                    child = children[idx]
                    if child not in visited:
                        visited.add(child)
                        stack.append(
                            (child, 0, self._shuffled_children(child))
                        )
                    continue
                stack.pop()
                counter += 1
                post[node] = counter
                lo = counter
                for child in children:
                    lo = min(lo, low[child])
                low[node] = lo
        self._next_post = counter + 1
        return {c: (low[c], post[c]) for c in post}

    def _shuffled_children(self, cid: int) -> List[int]:
        children = list(self.dag.dag.out_neighbors(cid))
        self._rng.shuffle(children)
        return children

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------
    def _ensure_labeled(self, cid: int) -> None:
        for label in self.labels:
            if cid not in label:
                label[cid] = (self._next_post, self._next_post)
        self._next_post += 1

    def _widen(self, cid: int, target: int) -> None:
        """Make every interval of ``cid`` cover ``target``'s, propagating
        the widening to all ancestors that stop covering it."""
        queue = [(cid, target)]
        while queue:
            node, covered = queue.pop()
            changed = False
            for label in self.labels:
                lo_n, hi_n = label[node]
                lo_c, hi_c = label[covered]
                lo = min(lo_n, lo_c)
                hi = max(hi_n, hi_c)
                if (lo, hi) != (lo_n, hi_n):
                    label[node] = (lo, hi)
                    changed = True
            if changed:
                for parent in self.dag.dag.in_neighbors(node):
                    queue.append((parent, node))

    def _handle_merge(self, merged: Set[int], new_cid: int) -> None:
        # ``new_cid`` is the largest merged component's own id, so it is
        # also in ``merged``: read and drop every part before assigning.
        for label in self.labels:
            lo = min(label[c][0] for c in merged if c in label)
            hi = max(label[c][1] for c in merged if c in label)
            for c in merged:
                label.pop(c, None)
            label[new_cid] = (lo, hi)
        for parent in self.dag.dag.in_neighbors(new_cid):
            self._widen(parent, new_cid)

    def _handle_split(self, old_cid: int, new_cids: List[int]) -> None:
        # The largest part still goes by ``old_cid`` (it is in ``new_cids``).
        for label in self.labels:
            interval = label.pop(old_cid, None)
            if interval is None:
                interval = (0, self._next_post)
            for c in new_cids:
                label[c] = interval  # valid over-approximation

    def insert_edge(self, source: int, target: int) -> None:
        had_u = self.graph.has_vertex(source)
        had_v = self.graph.has_vertex(target)
        self.dag.insert_edge(source, target)
        if not had_u:
            self._ensure_labeled(self.dag.component_of(source))
        if not had_v:
            self._ensure_labeled(self.dag.component_of(target))
        cu = self.dag.component_of(source)
        cv = self.dag.component_of(target)
        if cu != cv:
            self._widen(cu, cv)
        self._count_update()

    def delete_edge(self, source: int, target: int) -> None:
        self.dag.delete_edge(source, target)
        self._count_update()

    def _count_update(self) -> None:
        self._updates_since_rebuild += 1
        if self.rebuild_every and self._updates_since_rebuild >= self.rebuild_every:
            self._build_labels()

    # ------------------------------------------------------------------
    # Query: interval-pruned unidirectional DFS over the DAG
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
        target_intervals = [label[ct] for label in self.labels]
        if not self._may_reach(cs, target_intervals):
            return False
        stack = [cs]
        visited = {cs}
        while stack:
            c = stack.pop()
            if c == ct:
                return True
            for w in self.dag.dag.out_neighbors(c):
                if w in visited:
                    continue
                visited.add(w)
                if self._may_reach(w, target_intervals):
                    stack.append(w)
        return False

    def _may_reach(self, cid: int, target_intervals: List[Interval]) -> bool:
        for label, (t_lo, t_hi) in zip(self.labels, target_intervals):
            lo, hi = label[cid]
            if not (lo <= t_lo and t_hi <= hi):
                return False
        return True
