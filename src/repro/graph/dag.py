"""Incremental condensation (DAG) maintenance, in the style of DAGGER.

The index-based competitors (TOL, IP, DAGGER) are defined over the DAG of
strongly connected components. On a dynamic graph the condensation itself
must be maintained: an edge insertion may merge a chain of SCCs into one,
and an edge deletion inside an SCC may split it apart (Yildirim et al.,
DAGGER, 2013). :class:`DynamicDAG` keeps the original graph, the
vertex-to-component mapping, the condensation DAG, inter-component edge
multiplicities and a topological level per component consistent under
both operations. It is the one owner of that structure: the serving
pruner's ``same-scc`` / ``topo-level`` rules and the DL/BL label sweeps
read it instead of recomputing it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import strongly_connected_components


def _grow(
    frontier: List[int],
    adj: Dict[int, List[int]],
    seen: Set[int],
    other: Set[int],
    member_set: Set[int],
) -> Optional[List[int]]:
    """One BFS level inside ``member_set``; ``None`` once it touches a
    vertex the opposite search has seen."""
    grown: List[int] = []
    for x in frontier:
        for w in adj[x]:
            if w in other:
                return None
            if w not in seen and w in member_set:
                seen.add(w)
                grown.append(w)
    return grown


class DynamicDAG:
    """A directed graph together with its incrementally maintained condensation.

    Maintenance costs what the update changes, not the size of the
    component it lands in: an intra-SCC delete is a bidirectional
    reconnect probe (``O(probe)``; Tarjan runs only when the probe proves
    a split, ``O(|C|)`` in place plus ``O(peeled)`` bookkeeping), and a
    merge rewires only the absorbed components (``O(absorbed)``).

    A component id names a *lineage*, allocated from a private counter:
    on a merge the largest component keeps its id, its ``members`` set
    (grown in place) and its DAG vertex; on a split the largest part keeps
    them (shrunk in place) and only the peeled parts get fresh ids. Retired
    ids are never handed out again. Callbacks ``on_merge(old_cids, cid)`` /
    ``on_split(old_cid, new_cids)`` let an index (e.g. DAGGER's interval
    labels) react to condensation changes; the surviving id appears on
    both sides, and ``new_cids`` is in Tarjan's sinks-first order.

    ``level[cid]`` strictly rises along every DAG edge, so
    ``level(a) >= level(b)`` refutes ``a ~> b`` between distinct
    components. A build assigns longest-path levels; updates repair them
    where they change (see :meth:`_raise_levels`). ``version`` is the
    graph version last applied here: a graph mutated behind the DAG's
    back leaves it behind for good.
    """

    def __init__(self, graph: Optional[DynamicDiGraph] = None) -> None:
        self.graph = graph if graph is not None else DynamicDiGraph()
        self.dag = DynamicDiGraph()
        self.scc_of: Dict[int, int] = {}
        self.members: Dict[int, Set[int]] = {}
        self.level: Dict[int, int] = {}
        self._edge_multiplicity: Dict[Tuple[int, int], int] = {}
        self._next_cid = 0
        self.merge_count = 0
        self.split_count = 0
        #: Intra-SCC deletes the reconnect probe settled without Tarjan,
        #: and the vertices all probes touched (their total cost).
        self.reconnect_count = 0
        self.probe_visited = 0
        self.on_merge: Optional[Callable[[Set[int], int], None]] = None
        self.on_split: Optional[Callable[[int, List[int]], None]] = None
        if graph is not None:
            self._build_from_scratch()
        self.version = self.graph.version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _fresh_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def _build_from_scratch(self) -> None:
        self.dag = DynamicDiGraph()
        self.scc_of.clear()
        self.members.clear()
        self.level.clear()
        self._edge_multiplicity.clear()
        cids = []
        for comp in strongly_connected_components(self.graph):
            cid = self._fresh_cid()
            cids.append(cid)
            self.dag.add_vertex(cid)
            self.members[cid] = set(comp)
            for v in comp:
                self.scc_of[v] = cid
        for u, v in self.graph.edges():
            cu, cv = self.scc_of[u], self.scc_of[v]
            if cu != cv:
                self._add_dag_edge(cu, cv)
        # Tarjan emits sinks first: its reverse is a topological order.
        level, in_neighbors = self.level, self.dag.in_neighbors
        for cid in reversed(cids):
            level[cid] = max(
                (level[p] + 1 for p in in_neighbors(cid)), default=0
            )

    def _add_dag_edge(self, cu: int, cv: int, mult: int = 1) -> None:
        key = (cu, cv)
        count = self._edge_multiplicity.get(key, 0)
        self._edge_multiplicity[key] = count + mult
        if count == 0:
            self.dag.add_edge(cu, cv)

    def _remove_dag_edge(self, cu: int, cv: int) -> None:
        key = (cu, cv)
        count = self._edge_multiplicity[key] - 1
        if count == 0:
            del self._edge_multiplicity[key]
            self.dag.remove_edge(cu, cv)
        else:
            self._edge_multiplicity[key] = count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def component_of(self, v: int) -> int:
        """The condensation vertex containing original vertex ``v``."""
        return self.scc_of[v]

    def components_of(self, ids):
        """``(comp, level)``: each id's component and its level, as
        ``int64`` arrays aligned with the id array ``ids``."""
        comps = list(map(self.scc_of.__getitem__, ids.tolist()))
        level = list(map(self.level.__getitem__, comps))
        return np.array(comps, dtype=np.int64), np.array(level, dtype=np.int64)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _stamp(self, before: int) -> None:
        """Move ``version`` over one applied mutation, unless the graph was
        already past it: a DAG that missed an update stays behind."""
        if self.version == before:
            self.version = self.graph.version

    def add_vertex(self, v: int) -> None:
        if v in self.scc_of:
            return
        before = self.graph.version
        self.graph.add_vertex(v)
        cid = self._fresh_cid()
        self.dag.add_vertex(cid)
        self.members[cid] = {v}
        self.scc_of[v] = cid
        self.level[cid] = 0
        self._stamp(before)

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert ``(u, v)``, merging SCCs if a cycle is created.

        Returns ``True`` if the edge was new.
        """
        self.add_vertex(u)
        self.add_vertex(v)
        before = self.graph.version
        if not self.graph.add_edge(u, v):
            return False
        self._stamp(before)
        cu, cv = self.scc_of[u], self.scc_of[v]
        if cu == cv:
            return True
        level = self.level
        if level[cv] < level[cu]:
            # Only components levelled below ``cu`` can lie on a path to it.
            top = level[cu]
            forward = self._dag_closure(
                cv, True, lambda w: level[w] < top or w == cu
            )
            if cu in forward:
                self._merge_cycle(cu, forward)
                return True
        self._add_dag_edge(cu, cv)
        if level[cv] <= level[cu]:
            level[cv] = level[cu] + 1
            self._raise_levels(cv)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete ``(u, v)``, splitting the containing SCC if it breaks apart."""
        before = self.graph.version
        if not self.graph.remove_edge(u, v):
            return False
        self._stamp(before)
        cu, cv = self.scc_of[u], self.scc_of[v]
        if cu != cv:
            self._remove_dag_edge(cu, cv)
        elif u != v:
            if self._still_connected(u, v, self.members[cu]):
                self.reconnect_count += 1
            else:
                self._split(cu)
        return True

    # ------------------------------------------------------------------
    # Merge / split internals
    # ------------------------------------------------------------------
    def _raise_levels(self, start: int) -> None:
        """Restore ``level[a] < level[b]`` on every DAG edge reachable
        from ``start`` after its level rose. An insert raises from its
        head, a merge from the survivor (at the max of the merged levels),
        a split from each part (numbered upwards in topological order from
        the old level); a delete cannot break the contract."""
        level, out_neighbors = self.level, self.dag.out_neighbors
        stack = [start]
        while stack:
            x = stack.pop()
            lx = level[x]
            for w in out_neighbors(x):
                if level[w] <= lx:
                    level[w] = lx + 1
                    stack.append(w)

    def _merge_cycle(self, cu: int, forward: Set[int]) -> None:
        """Merge every component on a ``cv -> ... -> cu`` DAG path (plus the
        new back edge ``cu -> cv``) into the largest of them; ``forward``
        holds what ``cv`` reaches, ``cu`` included."""
        to_merge = self._dag_closure(cu, False, forward.__contains__)
        members = self.members
        keep = max(to_merge, key=lambda c: len(members[c]))
        absorbed_ids = to_merge - {keep}
        # Edges internal to the merged set vanish; boundary edges of the
        # absorbed components move to ``keep``. (Adding those touches only
        # adjacency lists of ``keep`` and of outside components, never the
        # absorbed lists being walked.)
        pop_mult = self._edge_multiplicity.pop
        for cid in absorbed_ids:
            for w in self.dag.out_neighbors(cid):
                mult = pop_mult((cid, w))
                if w not in to_merge:
                    self._add_dag_edge(keep, w, mult)
            for w in self.dag.in_neighbors(cid):
                if w in absorbed_ids:
                    continue  # popped from its tail's out-edges
                mult = pop_mult((w, cid))
                if w != keep:
                    self._add_dag_edge(w, keep, mult)
        kept_members = members[keep]
        scc_of, level = self.scc_of, self.level
        top = level[keep]
        for cid in absorbed_ids:
            absorbed = members.pop(cid)
            for v in absorbed:
                scc_of[v] = keep
            kept_members |= absorbed
            self.dag.remove_vertex(cid)
            top = max(top, level.pop(cid))
        level[keep] = top  # edges in still rise; raising fixes edges out
        self._raise_levels(keep)
        self.merge_count += 1
        if self.on_merge is not None:
            self.on_merge(to_merge, keep)

    def _dag_closure(
        self, start: int, forward: bool, admit: Callable[[int], bool]
    ) -> Set[int]:
        """BFS closure over the DAG through the components ``admit``s."""
        visited = {start}
        queue = deque([start])
        while queue:
            c = queue.popleft()
            for w in self.dag.neighbors(c, forward):
                if w not in visited and admit(w):
                    visited.add(w)
                    queue.append(w)
        return visited

    def _still_connected(self, u: int, v: int, member_set: Set[int]) -> bool:
        """Whether ``u`` still reaches ``v`` after ``(u, v)`` left their SCC.

        Bidirectional BFS inside ``member_set``, smaller frontier first.
        The restriction is exact: a vertex on any ``u ~> v`` detour lies on
        a cycle with the old ``v ~> u`` path, i.e. in the component. And
        ``u ~> v`` decides the whole component: every member still reaches
        ``u`` and is still reached from ``v``, because a simple path ending
        at ``u`` (or starting at ``v``) cannot have used ``(u, v)``. A side
        that runs dry without meeting the other proves a split.
        """
        out_adj = self.graph.adjacency(True)
        in_adj = self.graph.adjacency(False)
        seen_fwd, seen_bwd = {u}, {v}
        frontier_fwd: Optional[List[int]] = [u]
        frontier_bwd: Optional[List[int]] = [v]
        while frontier_fwd and frontier_bwd:
            if len(frontier_fwd) <= len(frontier_bwd):
                frontier_fwd = _grow(
                    frontier_fwd, out_adj, seen_fwd, seen_bwd, member_set
                )
            else:
                frontier_bwd = _grow(
                    frontier_bwd, in_adj, seen_bwd, seen_fwd, member_set
                )
        self.probe_visited += len(seen_fwd) + len(seen_bwd)
        return frontier_fwd is None or frontier_bwd is None

    def _split(self, cid: int) -> None:
        """Split component ``cid``, which an edge deletion disconnected.

        Tarjan runs in place over the member set. The largest part keeps
        ``cid`` and its ``members`` set; the peeled parts get fresh ids and
        only their members' adjacency is walked to re-derive DAG edges.
        """
        kept_members = self.members[cid]
        parts = strongly_connected_components(self.graph, within=kept_members)
        largest = max(range(len(parts)), key=lambda i: len(parts[i]))
        scc_of = self.scc_of
        new_cids: List[int] = []
        peeled: List[int] = []
        for i, comp in enumerate(parts):
            if i == largest:
                new_cids.append(cid)
                continue
            new_cid = self._fresh_cid()
            new_cids.append(new_cid)
            self.dag.add_vertex(new_cid)
            self.members[new_cid] = set(comp)
            for v in comp:
                scc_of[v] = new_cid
            peeled.extend(comp)
        kept_members.difference_update(peeled)
        fresh = set(new_cids) - {cid}
        # Every edge that changed class touches a peeled vertex: edges to
        # the outside move from ``cid`` to the peeled part, edges to the
        # rest of the old component become DAG edges. Peeled-to-peeled
        # edges are counted once, from their tail.
        for p in peeled:
            a = scc_of[p]
            for w in self.graph.out_neighbors(p):
                b = scc_of[w]
                if b == a:
                    continue
                if b != cid and b not in fresh:
                    self._remove_dag_edge(cid, b)
                self._add_dag_edge(a, b)
            for w in self.graph.in_neighbors(p):
                b = scc_of[w]
                if b == a or b in fresh:
                    continue
                if b != cid:
                    self._remove_dag_edge(b, cid)
                self._add_dag_edge(b, a)
        # Reversed, sinks-first is topological: counting up along it keeps
        # edges into and between the parts rising; raising fixes edges out.
        level = self.level
        base = level[cid]
        for offset, part in enumerate(reversed(new_cids)):
            level[part] = base + offset
        for part in new_cids:
            self._raise_levels(part)
        self.split_count += 1
        if self.on_split is not None:
            self.on_split(cid, new_cids)

    # ------------------------------------------------------------------
    # Consistency checking
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the maintained structures agree
        with each other, and unless every component has a level that
        every DAG edge strictly raises. ``O(n + m)`` and Tarjan-free, so
        cheap enough to run after every step of a harness; it does not
        prove each component strongly connected — :meth:`check_consistency`
        is the from-scratch oracle for that."""
        graph, dag, scc_of = self.graph, self.dag, self.scc_of
        assert len(scc_of) == graph.num_vertices, "scc_of misses vertices"
        assert sum(len(mem) for mem in self.members.values()) == len(scc_of), (
            "members do not partition the vertices"
        )
        for cid, mem in self.members.items():
            assert mem, f"component {cid} is empty"
            for v in mem:
                assert v in graph and scc_of[v] == cid, (
                    f"vertex {v} listed under {cid}, labelled {scc_of.get(v)}"
                )
        assert set(self.members) == set(dag.vertices()), "DAG vertices diverged"
        assert set(self.level) == set(self.members), "levels diverged"
        assert set(self._edge_multiplicity) == set(dag.edges()), (
            "multiplicity keys diverged from DAG edges"
        )
        assert all(n > 0 for n in self._edge_multiplicity.values())
        crossing = sum(1 for u, v in graph.edges() if scc_of[u] != scc_of[v])
        assert sum(self._edge_multiplicity.values()) == crossing, (
            "multiplicities do not sum to the inter-component edge count"
        )
        for a, b in self._edge_multiplicity:  # which also proves acyclicity
            assert self.level[a] < self.level[b], (
                f"DAG edge {(a, b)} does not raise the level (or a cycle)"
            )

    def check_consistency(self) -> None:
        """Raise ``AssertionError`` if the maintained condensation disagrees
        with one recomputed from scratch."""
        expected = strongly_connected_components(self.graph)
        expected_sets = {frozenset(comp) for comp in expected}
        actual_sets = {frozenset(mem) for mem in self.members.values()}
        assert expected_sets == actual_sets, "SCC membership diverged"
        expected_edges: Dict[Tuple[int, int], int] = {}
        for u, v in self.graph.edges():
            cu, cv = self.scc_of[u], self.scc_of[v]
            if cu != cv:
                expected_edges[(cu, cv)] = expected_edges.get((cu, cv), 0) + 1
        assert expected_edges == self._edge_multiplicity, (
            "DAG edge multiplicities diverged"
        )
        for (cu, cv) in expected_edges:
            assert self.dag.has_edge(cu, cv)
        assert self.dag.num_edges == len(expected_edges)
