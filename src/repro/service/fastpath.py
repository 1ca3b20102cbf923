"""Constant-time query observations, in the style of O'Reach.

O'Reach (Hanauer, Schulz, Trummer) shows that on real workloads the vast
majority of reachability queries can be decided by a handful of O(1)
"observations" computed from cheap auxiliary structure, before any search
starts. This module adapts that idea to the *dynamic* setting by anchoring
every observation in structure the repo can maintain incrementally:

1. **Trivial tests** — ``s == t``, missing endpoints, ``d_out(s) == 0``,
   ``d_in(t) == 0``. Stateless, always available.
2. **SCC membership** — a :class:`~repro.graph.dag.DynamicDAG` keeps the
   condensation consistent under both insertions (merges) and deletions
   (splits) at a cost proportional to the change; two vertices in the
   same SCC are mutually reachable.
3. **Topological levels** — the same :class:`~repro.graph.dag.DynamicDAG`
   gives each condensation component a level that every DAG edge strictly
   increases. Any path therefore strictly increases levels, so
   ``level(scc(s)) >= level(scc(t))`` (with distinct SCCs) refutes
   reachability in O(1). The DAG repairs them inside its own updates
   (raised along out-edges on insertion, reassigned locally on SCC
   merge/split, untouched by deletions); the pruner only reads them.
4. **Supportive vertices** — ``k`` sampled vertices with materialized
   forward/backward reachable sets ``F(x)`` / ``B(x)``. They prove
   positives (``s ∈ B(x) ∧ t ∈ F(x)``) and refute negatives
   (``s ∈ F(x) ∧ t ∉ F(x)``, or ``t ∈ B(x) ∧ s ∉ B(x)``). Insertions
   extend the sets exactly (a new edge only ever adds vertices, found by a
   BFS from its head); reachability-removing deletions invalidate them,
   and a cooldown-limited lazy rebuild restores them off the update path.

Every observation is *exact* for the version it was computed at; the
pruner never returns an answer that could disagree with a full search on
the same snapshot.

At width: the array view
------------------------
Each observation is a per-vertex table lookup, so a batch of them is a
gather. :meth:`FastPathPruner.check_many` answers aligned endpoint
arrays from a :class:`PrunerView` — per vertex (row of the version's
frozen CSR snapshot): degree-zero masks from its offsets, ``scc_of`` as a
component array, the component's level, and one bit per supportive
vertex in a ``F(x)`` word and a ``B(x)`` word — with :meth:`check`'s rule
names in :meth:`check`'s first-match order (:data:`RULES`). :meth:`check`
stays the width-1 / no-view path and the reference the
property tests hold ``check_many`` to.

The pruner builds the view itself, lazily, in :meth:`FastPathPruner.view`
— called by a reader holding the service's read lock, so the graph
cannot move under the build — and only from a snapshot that is already
frozen: the wave rung's freeze is what makes a version worth a view
(13 ms and 1 MiB at n = 50k next to that 87 ms freeze; a version that
only ever serves narrow walks never gets one). Nothing invalidates it:
it is current while ``graph.version`` equals the version it was built at
and the pruner still holds the sample holder its masks were read from,
and a walk that finds it otherwise rebuilds it (a holder swap at an
unchanged version redoes only the masks) or, with no snapshot to build
from, takes :meth:`check`. A stale view therefore never answers.
"""

from __future__ import annotations

import heapq
import random
import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import bfs_reachable, reverse_bfs_reachable


@dataclass(frozen=True)
class UpdateEffect:
    """What one routed update did to reachability, for cache invalidation.

    ``adds_reachability`` / ``removes_reachability`` are conservative but
    condensation-aware: an update that provably changed no reachable pair
    (an edge inside a surviving SCC, a parallel inter-SCC edge, a pure
    no-op) reports neither flag, so downstream caches keep everything.
    """

    changed: bool
    adds_reachability: bool
    removes_reachability: bool
    version: int


#: Every rule :meth:`FastPathPruner.check` can answer by, in the order it
#: tries them; :meth:`FastPathPruner.check_many` names a rule by its index
#: here, and :data:`RULE_ANSWERS` holds the verdict that goes with it.
RULES = (
    "identity",
    "missing-endpoint",
    "source-sink",
    "target-source",
    "same-scc",
    "topo-level",
    "supportive-bridge",
    "supportive-forward",
    "supportive-backward",
)
RULE_ANSWERS = (True, False, False, False, True, False, True, False, False)

#: One mask word per vertex and side: more supportive vertices than this
#: and the pruner has no array view (every width takes :meth:`check`).
_MASK_BITS = 64
#: Queries of demand after a deletion invalidated the supportive sets
#: before :meth:`FastPathPruner.observe_query` rebuilds them.
REBUILD_COOLDOWN = 32


class _SampleSets:
    """Immutable-by-convention holder for the supportive-vertex sets.

    Readers grab one reference and use it without locking; the pruner
    swaps in a freshly built holder atomically on rebuild. ``valid`` flips
    False (the only in-place mutation readers can observe) when a deletion
    makes the sets untrustworthy — a half-read stale holder is therefore
    never *used*, only skipped.
    """

    __slots__ = ("vertices", "fwd", "bwd", "valid")

    def __init__(
        self,
        vertices: List[int],
        fwd: Dict[int, Set[int]],
        bwd: Dict[int, Set[int]],
    ) -> None:
        self.vertices = vertices
        self.fwd = fwd
        self.bwd = bwd
        self.valid = True


class PrunerView(NamedTuple):
    """The pruner's observations as per-vertex arrays, for one version.

    Rows are those of ``csr``, the version's frozen snapshot: its sorted
    id table answers membership, its offsets the two degree tests. 20
    bytes a vertex with up to eight supportive vertices. Current while
    the graph is at ``version`` *and* the pruner still holds ``holder``;
    never patched, only replaced.
    """

    version: int
    csr: object
    #: ``d_out(v) == 0`` / ``d_in(v) == 0`` per row.
    sink: object
    source: object
    #: ``scc_of[v]`` and that component's topological level per row.
    comp: object
    level: object
    #: The supportive sets the masks were read from.
    holder: _SampleSets
    #: Bit ``k`` of word ``v``: ``v`` is in ``F(x_k)`` / ``B(x_k)`` of the
    #: holder's ``k``-th vertex. ``None`` for a holder already invalid.
    fwd: object
    bwd: object


def _choose_supportive(
    graph: DynamicDiGraph, count: int, rng: random.Random
) -> List[int]:
    """Half high-degree hubs (cover skewed traffic), half random (cover
    the periphery); deterministic under a seeded rng."""
    vertices = [v for v in graph.vertices() if graph.degree(v) > 0]
    if not vertices or count <= 0:
        return []
    count = min(count, len(vertices))
    chosen = heapq.nsmallest(
        (count + 1) // 2, vertices, key=lambda v: (-graph.degree(v), v)
    )
    hubs = set(chosen)
    rest = [v for v in vertices if v not in hubs]
    rng.shuffle(rest)
    chosen.extend(rest[: count - len(chosen)])
    return chosen


class FastPathPruner:
    """O(1) observations over incrementally maintained structure.

    All updates to the underlying graph must flow through
    :meth:`apply_insert` / :meth:`apply_delete` (the service guarantees
    this); :meth:`check` may run concurrently from many reader threads.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        num_supportive: int = 4,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.dag = DynamicDAG(graph)
        self.num_supportive = num_supportive
        self._rng = random.Random(seed)
        self._samples = self._build_samples()
        self._rebuild_mutex = threading.Lock()
        self._queries_since_invalid = 0
        self.sample_rebuilds = 0
        self._view: Optional[PrunerView] = None
        self._view_mutex = threading.Lock()
        self.view_builds = 0

    # ------------------------------------------------------------------
    # Update routing
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> UpdateEffect:
        changed = v not in self.graph
        self.dag.add_vertex(v)
        return UpdateEffect(changed, False, False, self.graph.version)

    def apply_insert(self, u: int, v: int) -> UpdateEffect:
        self.add_vertex(u)
        self.add_vertex(v)
        cu, cv = self.dag.component_of(u), self.dag.component_of(v)
        dag_edge_existed = cu == cv or self.dag.dag.has_edge(cu, cv)
        if not self.dag.insert_edge(u, v):
            return UpdateEffect(False, False, False, self.graph.version)
        adds_reach = not dag_edge_existed  # condensation changed
        if adds_reach:
            self._extend_samples(u, v)
        return UpdateEffect(True, adds_reach, False, self.graph.version)

    def apply_delete(self, u: int, v: int) -> UpdateEffect:
        if not self.graph.has_edge(u, v):
            return UpdateEffect(False, False, False, self.graph.version)
        cu, cv = self.dag.component_of(u), self.dag.component_of(v)
        splits = self.dag.split_count
        self.dag.delete_edge(u, v)
        if cu != cv:
            # Inter-SCC edge: reachability changed only if the last
            # parallel edge between the two components went away.
            removes_reach = not self.dag.dag.has_edge(cu, cv)
        else:
            # Within one SCC reachability changed only if it split.
            removes_reach = self.dag.split_count != splits

        if removes_reach:
            self._invalidate_samples()
        return UpdateEffect(True, False, removes_reach, self.graph.version)

    # ------------------------------------------------------------------
    # Supportive-vertex sets
    # ------------------------------------------------------------------
    def _build_samples(self) -> _SampleSets:
        vertices = _choose_supportive(self.graph, self.num_supportive, self._rng)
        fwd = {x: bfs_reachable(self.graph, x) for x in vertices}
        bwd = {x: reverse_bfs_reachable(self.graph, x) for x in vertices}
        return _SampleSets(vertices, fwd, bwd)

    def _extend_samples(self, u: int, v: int) -> None:
        """Exact incremental maintenance under the insertion ``(u, v)``
        (already applied to the graph): sets only ever grow."""
        holder = self._samples
        if not holder.valid:
            return
        graph = self.graph
        for x in holder.vertices:
            fset = holder.fwd[x]
            if u in fset and v not in fset:
                queue = deque([v])
                fset.add(v)
                while queue:
                    a = queue.popleft()
                    for b in graph.out_neighbors(a):
                        if b not in fset:
                            fset.add(b)
                            queue.append(b)
            bset = holder.bwd[x]
            if v in bset and u not in bset:
                queue = deque([u])
                bset.add(u)
                while queue:
                    a = queue.popleft()
                    for b in graph.in_neighbors(a):
                        if b not in bset:
                            bset.add(b)
                            queue.append(b)

    def _invalidate_samples(self) -> None:
        self._samples.valid = False
        self._queries_since_invalid = 0

    def rebuild_samples(self) -> None:
        """Recompute the supportive sets for the current snapshot."""
        self._samples = self._build_samples()
        self.sample_rebuilds += 1

    def observe_query(self, count: int = 1) -> None:
        """Cooldown-limited lazy rebuild, told of every served query.

        Rebuilding costs ``k`` BFS traversals, so after a deletion storm
        the pruner waits for :data:`REBUILD_COOLDOWN` queries of demand before
        paying it; meanwhile the sampled observations simply abstain.
        The non-blocking mutex keeps concurrent readers from duplicating
        the rebuild; the reference swap at the end is atomic.
        """
        if self._samples.valid:
            return
        self._queries_since_invalid += count
        if self._queries_since_invalid < REBUILD_COOLDOWN:
            return
        if not self._rebuild_mutex.acquire(blocking=False):
            return
        try:
            if not self._samples.valid:
                self.rebuild_samples()
        finally:
            self._rebuild_mutex.release()

    # ------------------------------------------------------------------
    # The observations
    # ------------------------------------------------------------------
    def check(self, source: int, target: int) -> Optional[Tuple[bool, str]]:
        """Try every O(1) observation; ``None`` means "run the search"."""
        if source == target:
            return (True, "identity")
        graph = self.graph
        if source not in graph or target not in graph:
            return (False, "missing-endpoint")
        if graph.out_degree(source) == 0:
            return (False, "source-sink")
        if graph.in_degree(target) == 0:
            return (False, "target-source")
        cs = self.dag.scc_of[source]
        ct = self.dag.scc_of[target]
        if cs == ct:
            return (True, "same-scc")
        level = self.dag.level
        if level[cs] >= level[ct]:
            return (False, "topo-level")
        holder = self._samples
        if holder.valid:
            for x in holder.vertices:
                fset = holder.fwd[x]
                bset = holder.bwd[x]
                if source in bset and target in fset:
                    return (True, "supportive-bridge")
                if source in fset and target not in fset:
                    return (False, "supportive-forward")
                if target in bset and source not in bset:
                    return (False, "supportive-backward")
        return None

    # ------------------------------------------------------------------
    # The observations, at width
    # ------------------------------------------------------------------
    def view(self) -> Optional[PrunerView]:
        """The array view current for this version and holder, or ``None``.

        Built here, lazily, by the first caller that finds none current
        *and* finds the version's CSR snapshot already frozen (this never
        freezes: a version nobody searched at width has no snapshot and
        gets no view). After a holder swap at an unchanged version only
        the masks are redone. Readers may call this concurrently: one
        builds, the others get ``None`` for that call and take the scalar
        :meth:`check`. Nothing invalidates a view but the two comparisons
        below; a stale one is dropped when its replacement is published.
        """
        view, holder, version = self._view, self._samples, self.graph.version
        if view is not None and view.version == version and view.holder is holder:
            return view
        if len(holder.vertices) > _MASK_BITS:
            return None
        csr = self.graph.csr(build=False)
        if csr is None or not self._view_mutex.acquire(blocking=False):
            return None
        try:
            if view is not None and view.version == version:
                sink, source = view.sink, view.source
                comp, level = view.comp, view.level
            else:
                comp, level = self.dag.components_of(csr.vertex_ids)
                sink = csr.out_offsets[1:] == csr.out_offsets[:-1]
                source = csr.in_offsets[1:] == csr.in_offsets[:-1]
            fwd = bwd = None
            if holder.valid:
                fwd = self._sample_masks(csr, holder.vertices, holder.fwd)
                bwd = self._sample_masks(csr, holder.vertices, holder.bwd)
            self._view = PrunerView(
                version, csr, sink, source, comp, level, holder, fwd, bwd
            )
            self.view_builds += 1
            return self._view
        finally:
            self._view_mutex.release()

    @staticmethod
    def _sample_masks(csr, vertices: List[int], sets: Dict[int, Set[int]]):
        """Bit ``k`` of word ``v``: row ``v`` is in the ``k``-th set. The
        word is the narrowest unsigned type with a bit per set."""
        bits = next(b for b in (8, 16, 32, _MASK_BITS) if len(vertices) <= b)
        masks = np.zeros(csr.num_vertices, dtype=f"uint{bits}")
        for k, x in enumerate(vertices):
            members = np.fromiter(sets[x], dtype=np.int64, count=len(sets[x]))
            rows, known = csr.rows_of(members)
            masks[rows[known]] |= masks.dtype.type(1 << k)
        return masks

    def check_many(self, source, target):
        """:meth:`check` over aligned ``int64`` id arrays, as one gather.

        Returns an ``int8`` array: per pair the index in :data:`RULES` of
        the first rule that fires — the rule :meth:`check` would name,
        its verdict :data:`RULE_ANSWERS` — or ``-1`` to abstain. Returns
        ``None``, answering nothing, when :meth:`view` has no current
        view to gather from.

        Rules are written last-to-first so that an earlier rule
        overwrites every later one that also fires: first-match order
        without a pending mask per step.
        """
        view = self.view()
        if view is None:
            return None
        si, source_known = view.csr.rows_of(source)
        ti, target_known = view.csr.rows_of(target)
        rule = np.full(len(source), -1, dtype=np.int8)
        if view.fwd is not None and view.holder.valid:
            fs, ft = view.fwd[si], view.fwd[ti]
            bs, bt = view.bwd[si], view.bwd[ti]
            bridge, forward, backward = bs & ft, fs & ~ft, bt & ~bs
            fired = bridge | forward | backward
            # The lowest set bit: the first supportive vertex, in the
            # holder's order, that has anything to say about the pair.
            first = fired & (~fired + fired.dtype.type(1))
            rule[(backward & first) != 0] = 8
            rule[(forward & first) != 0] = 7
            rule[(bridge & first) != 0] = 6
        rule[view.level[si] >= view.level[ti]] = 5
        rule[view.comp[si] == view.comp[ti]] = 4
        rule[view.source[ti]] = 3
        rule[view.sink[si]] = 2
        rule[~(source_known & target_known)] = 1
        rule[source == target] = 0
        return rule
