"""Incremental DL/BL reachability labels — the serving ladder's third pruner.

DBL (Lyu et al., arXiv:2101.09441) answers most reachability queries from
two k-bit labels per vertex: a *descendant* label ``DL[v]`` (the OR of
hash seeds over everything ``v`` reaches, itself included) and an
*ancestor* label ``BL[v]`` (the same over everything that reaches ``v``).
Two one-sided rules follow directly:

* **positive** — word 0 is a *landmark* word holding one exact bit for
  each of up to 64 high-degree hub vertices. ``DL[s][0] & BL[t][0] != 0``
  proves ``s`` reaches some landmark that reaches ``t`` — an exact
  positive, no search.
* **negative** — the remaining words are bloom words (one hashed bit per
  vertex id). Reachability implies containment — ``reach(s) ⊇ reach(t)``
  when ``s`` reaches ``t`` — so ``DL[t] & ~DL[s] != 0`` (``t`` reaches a
  seed ``s`` provably does not) or ``BL[s] & ~BL[t] != 0`` is an exact
  negative.

Labels here are ``(n, k)`` uint64 numpy matrices, so the whole tier is
batch-native: one gather-and-AND over the packed matrices prefilters a
1024-pair batch before any bit-parallel wave is planned
(:func:`LabelIndex.query_many`).

Dynamics follow DBL's insert side and the TOL-style lazy discipline on
the delete side:

* **insert** is monotone: ``add_edge(u, v)`` ORs ``DL[v]`` into ``u`` and
  its ancestors (symmetrically ``BL[u]`` into ``v`` and its descendants),
  early-stopping where the carry is already contained. A frontier cutoff
  (:data:`INSERT_FRONTIER_LIMIT`) bounds the touch count; tripping it
  leaves the labels *under*-
  approximated, which the global ``missing`` flag records — negatives
  are then suppressed (they would be unsound) while positives stay exact
  (every surviving bit is real).
* **delete** can only *shrink* reach sets, so stale labels would
  over-approximate — unsound in the positive direction. ``remove_edge(u,
  v)`` marks the exact affected region dirty instead of repairing it:
  the post-delete ancestors of ``u`` (their ``DL`` is suspect —
  ``dirty_out``) and the post-delete descendants of ``v`` (``BL`` —
  ``dirty_in``). Dirty rows abstain from the rules that depend on them;
  everything else keeps answering. A delete that would mark more than
  :data:`DELETE_DIRTY_LIMIT` rows marks every row instead.
* **lazy rebuild** — :meth:`LabelIndex.observe_query` repairs on demand:
  a *partial* rebuild recomputes only the dirty rows, a component at a
  time in level order, pulling clean neighbours' exact rows, escalating
  to a *full* vectorized rebuild once the dirty fraction passes
  :data:`STALENESS_THRESHOLD` or the labels went ``missing``. Rebuilds swap
  a fresh :class:`_LabelState` atomically, so concurrent readers keep a
  coherent snapshot.

Both rebuilds read components and levels from the index's
:class:`~repro.graph.dag.DynamicDAG` (in a service, the pruner's), and
neither runs once the graph is past the DAG's version.

Soundness invariants (the property suite in ``tests/test_labels.py``
asserts both against a BFS oracle under churn):

* **INV1** — every *clean* row is exact for the current graph version
  (unless ``missing``, in which case rows are under-approximations).
* **INV2** — the dirty sets are reach-closed: every vertex that reaches a
  ``dirty_out`` vertex is itself ``dirty_out`` (symmetrically
  ``dirty_in`` under "reached-from"). This is what makes insert
  propagation's early-stop at a dirty vertex safe, and what guarantees
  the partial rebuild never finds an SCC only partly dirty.
  :meth:`LabelIndex.check_invariants` checks it edge by edge.

The labels *are* the packed words, so the tier is numpy arrays throughout.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.dag import DynamicDAG
from repro.graph.digraph import DynamicDiGraph

Pair = Tuple[int, int]

#: Knuth's multiplicative hash constant: scatters vertex ids over bloom bits.
_HASH_MULT = 2654435761
_WORD_BITS = 64

#: Rows one insert propagation may update before it gives up and raises
#: the ``missing`` flag (negatives off until the next full rebuild).
INSERT_FRONTIER_LIMIT = 4096
#: Rows one delete may mark dirty before it conservatively marks them all.
DELETE_DIRTY_LIMIT = 4096
#: Bits per label side per vertex, a multiple of 64: word 0 is the exact
#: landmark word, the rest are bloom words.
LABEL_BITS = 256
#: Dirty-row fraction past which :meth:`LabelIndex.observe_query`
#: abandons partial repair and rebuilds from scratch.
STALENESS_THRESHOLD = 0.25
#: Stale-hit queries before a rebuild is attempted, so a churn burst
#: does not rebuild per query.
REBUILD_COOLDOWN = 64


class _LabelState:
    """One immutable-shape label snapshot (arrays mutate in place only
    under the service write lock; rebuilds swap whole states)."""

    __slots__ = (
        "version",
        "ids",
        "row",
        "dl",
        "bl",
        "dirty_out",
        "dirty_in",
        "num_dirty_out",
        "num_dirty_in",
        "missing",
        "ids_are_rows",
    )

    def __init__(self, version, ids, row, dl, bl) -> None:
        self.version = version
        self.ids = ids
        # ``ids`` is sorted and distinct, so ``0..n-1`` is told by its ends.
        self.ids_are_rows = len(ids) == 0 or bool(
            ids[0] == 0 and ids[-1] == len(ids) - 1
        )
        self.row = row
        self.dl = dl
        self.bl = bl
        self.dirty_out = np.zeros(len(ids), dtype=bool)
        self.dirty_in = np.zeros(len(ids), dtype=bool)
        self.num_dirty_out = 0
        self.num_dirty_in = 0
        self.missing = False


class LabelIndex:
    """Versioned DL/BL label matrices over the graph of one :class:`DynamicDAG`.

    All mutating entry points (``note_insert`` / ``note_delete`` /
    ``invalidate``) must run under the owning service's
    write lock; ``check`` / ``query_many`` / ``observe_query`` run under
    its read lock. The index never takes the service lock itself.

    Parameters
    ----------
    dag:
        The condensation the builds read, over the graph labelled; a bare
        :class:`DynamicDiGraph` is wrapped in a fresh one.
    landmarks:
        Pin the landmark set (tests compare incremental against fresh
        builds bit for bit; a fresh build would otherwise re-rank hubs).
    """

    def __init__(
        self,
        dag: Union[DynamicDAG, DynamicDiGraph],
        *,
        landmarks: Optional[Iterable[int]] = None,
    ) -> None:
        if not isinstance(dag, DynamicDAG):
            dag = DynamicDAG(dag)
        self.dag = dag
        self._graph = dag.graph
        self.words = LABEL_BITS // _WORD_BITS
        self._pinned_landmarks = (
            list(landmarks) if landmarks is not None else None
        )
        self._landmark_bit: Dict[int, int] = {}
        self._rebuild_mutex = threading.Lock()
        self._demand = 0
        self.updates = 0
        self.full_rebuilds = 0
        self.partial_rebuilds = 0
        self.stale_abstains = 0
        self._state: Optional[_LabelState] = None
        if dag.version == dag.graph.version:
            self._state = self._build_state()

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def _choose_landmarks(self) -> None:
        if self._pinned_landmarks is not None:
            chosen = [
                v for v in self._pinned_landmarks if v in self._graph
            ][:_WORD_BITS]
        else:
            g = self._graph
            chosen = sorted(
                g.vertices(),
                key=lambda v: (-(g.out_degree(v) + g.in_degree(v)), v),
            )[:_WORD_BITS]
        self._landmark_bit = {v: i for i, v in enumerate(chosen)}

    def _seed_matrix(self, ids, row):
        n = len(ids)
        seeds = np.zeros((n, self.words), dtype=np.uint64)
        for v, bit in self._landmark_bit.items():
            r = row.get(v)
            if r is not None:
                seeds[r, 0] |= np.uint64(1 << bit)
        if self.words > 1 and n:
            nbits = np.uint64(_WORD_BITS * (self.words - 1))
            h = (ids.astype(np.uint64) * np.uint64(_HASH_MULT)) % nbits
            word = (np.uint64(1) + h // np.uint64(_WORD_BITS)).astype(
                np.int64
            )
            bits = np.left_shift(np.uint64(1), h % np.uint64(_WORD_BITS))
            np.bitwise_or.at(seeds, (np.arange(n), word), bits)
        return seeds

    # ------------------------------------------------------------------
    # Full vectorized build
    # ------------------------------------------------------------------
    def _build_state(self) -> _LabelState:
        """Seed + two level-grouped OR sweeps over the condensation DAG.

        Components, DAG edges and levels are the DAG's own; the sweeps
        process DAG edges grouped by level — descendants' words flow to
        ancestors (DL) in descending source level, and the reverse (BL)
        in ascending target level — with one ``np.bitwise_or.at`` scatter
        per level group. Any levels that strictly rise along every edge
        give the same matrices.
        """
        graph = self._graph
        version = graph.version
        self._choose_landmarks()
        ids_list = sorted(graph.vertices())
        ids = np.asarray(ids_list, dtype=np.int64)
        row = {v: i for i, v in enumerate(ids_list)}
        seeds = self._seed_matrix(ids, row)
        comp, level = self.dag.components_of(ids)
        # Component ids are lineage ids, sparse after churn: compact them.
        cids, comp_of_row = np.unique(comp, return_inverse=True)
        comp_seed = np.zeros((len(cids), self.words), dtype=np.uint64)
        np.bitwise_or.at(comp_seed, comp_of_row, seeds)

        dag = self.dag.dag
        edges = np.fromiter(
            (c for e in dag.edges() for c in e),
            dtype=np.int64, count=2 * dag.num_edges,
        )
        src = np.searchsorted(cids, edges[0::2])
        dst = np.searchsorted(cids, edges[1::2])
        lvl = np.empty(len(cids), dtype=np.int64)
        lvl[comp_of_row] = level
        dl_comp = comp_seed.copy()
        bl_comp = comp_seed
        self._sweep(dl_comp, src, dst, -lvl[src])
        self._sweep(bl_comp, dst, src, lvl[dst])
        return _LabelState(
            version, ids, row, dl_comp[comp_of_row], bl_comp[comp_of_row]
        )

    @staticmethod
    def _sweep(mat, into, come_from, key) -> None:
        """``mat[into] |= mat[come_from]`` per ascending ``key`` group.

        Within one group the gathered right-hand side is a pre-group
        copy, which is exact because same-level edges cannot depend on
        each other (an edge strictly increases the level).
        """
        order = np.argsort(key, kind="stable")
        into = into[order]
        come_from = come_from[order]
        key = key[order]
        cuts = [0] + list(np.flatnonzero(np.diff(key)) + 1) + [len(key)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            np.bitwise_or.at(mat, into[a:b], mat[come_from[a:b]])

    # ------------------------------------------------------------------
    # Queries (read lock)
    # ------------------------------------------------------------------
    def check(self, source: int, target: int) -> Optional[bool]:
        """One pair through the rule ladder; ``None`` = abstain."""
        state = self._state
        if state is None:
            return None
        if state.version != self._graph.version:
            self.stale_abstains += 1
            return None
        row = state.row
        rs = row.get(source)
        rt = row.get(target)
        if rs is None or rt is None:
            return None
        if source == target:
            return True
        if not state.dirty_out[rs] and not state.dirty_in[rt]:
            if int(state.dl[rs, 0]) & int(state.bl[rt, 0]):
                return True
        if not state.missing:
            # Both rows of a side must be clean: a dirty row is neither an
            # over- nor an under-approximation (delete staleness adds bits,
            # skipped insert propagation withholds them), so it cannot sit
            # on either side of the containment test.
            if not state.dirty_out[rs] and not state.dirty_out[rt]:
                if np.any(state.dl[rt] & ~state.dl[rs]):
                    return False
            if not state.dirty_in[rs] and not state.dirty_in[rt]:
                if np.any(state.bl[rs] & ~state.bl[rt]):
                    return False
        return None

    def query_many(self, src, dst):
        """Vectorized rule ladder over aligned endpoint arrays.

        Returns an int8 array: ``1`` exact positive, ``-1`` exact
        negative, ``0`` abstain (search the pair). One gather-and-AND
        pass — this is the batch prefilter the planner and the shard
        router call.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        out = np.zeros(len(src), dtype=np.int8)
        state = self._state
        if state is None or len(state.ids) == 0 or len(src) == 0:
            return out
        if state.version != self._graph.version:
            self.stale_abstains += 1
            return out
        ids = state.ids
        last = len(ids) - 1
        if state.ids_are_rows:
            # An id is its row: range-check (a negative id viewed unsigned
            # is out of range too) and clip strangers onto a real row.
            n = np.uint64(len(ids))
            ok = (src.view(np.uint64) < n) & (dst.view(np.uint64) < n)
            ok &= src != dst
            si = np.clip(src, 0, last)
            ti = np.clip(dst, 0, last)
        else:
            si = np.minimum(np.searchsorted(ids, src), last)
            ti = np.minimum(np.searchsorted(ids, dst), last)
            ok = (ids[si] == src) & (ids[ti] == dst) & (src != dst)
        if not ok.any():
            return out
        dirty_out, dirty_in = state.dirty_out, state.dirty_in
        ds = state.dl[si]
        bt = state.bl[ti]
        pos = (
            ok
            & ~dirty_out[si]
            & ~dirty_in[ti]
            & ((ds[:, 0] & bt[:, 0]) != np.uint64(0))
        )
        out[pos] = 1
        if not state.missing:
            dt = state.dl[ti]
            bs = state.bl[si]
            neg = (
                ok
                & ~pos
                & (
                    (
                        ~dirty_out[si]
                        & ~dirty_out[ti]
                        & np.any(dt & ~ds, axis=1)
                    )
                    | (
                        ~dirty_in[si]
                        & ~dirty_in[ti]
                        & np.any(bs & ~bt, axis=1)
                    )
                )
            )
            out[neg] = -1
        return out

    def filter_pairs(self, pairs: Sequence[Pair]):
        """`query_many` over a pair list (the planner/router surface)."""
        count = len(pairs)
        if count == 1:
            # The vectorised gather has a ~50 us numpy floor; one pair
            # takes the same rules as scalars.
            verdict = self.check(*pairs[0])
            return (0 if verdict is None else 1 if verdict else -1,)
        src = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=count)
        dst = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=count)
        return self.query_many(src, dst)

    # ------------------------------------------------------------------
    # Updates (write lock)
    # ------------------------------------------------------------------
    def note_insert(self, u: int, v: int) -> None:
        """In-place OR propagation for one applied ``add_edge(u, v)``."""
        state = self._state
        if state is None:
            return
        self.updates += 1
        if u == v:
            state.version = self._graph.version
            return
        row = state.row
        ru = row.get(u)
        rv = row.get(v)
        if ru is None or rv is None:
            # add_edge materialized a vertex the matrices have no row
            # for: labels now under-approximate (the new vertex's bits
            # are absent upstream) until a rebuild re-seeds.
            self._mark_missing(state)
            return
        if not state.dirty_out[ru]:
            if state.dirty_out[rv]:
                # The carry (DL[v]) is itself suspect: taint u's
                # ancestors instead of spreading stale bits (keeps INV2).
                self._taint(state, u, out_side=True)
            else:
                self._propagate(
                    state, u, state.dl[rv].copy(), state.dl,
                    state.dirty_out, forward=False,
                )
        if not state.dirty_in[rv]:
            if state.dirty_in[ru]:
                self._taint(state, v, out_side=False)
            else:
                self._propagate(
                    state, v, state.bl[ru].copy(), state.bl,
                    state.dirty_in, forward=True,
                )
        state.version = self._graph.version

    def note_delete(
        self, u: int, v: int, removes_reachability: bool = True
    ) -> None:
        """Dirty-region invalidation for one applied ``remove_edge(u, v)``.

        ``removes_reachability=False`` (the fast-path pruner proved the
        deleted edge was redundant — a parallel DAG edge remains or the
        SCC held) keeps every label exact: reach sets did not change.
        Otherwise the *post-delete* ancestors of ``u`` and descendants of
        ``v`` are exactly the rows whose labels may now over-approximate
        (any old path through ``(u, v)`` reached ``u`` first, and that
        prefix survives the delete), so they are marked dirty.
        """
        state = self._state
        if state is None:
            return
        self.updates += 1
        if u == v or not removes_reachability:
            state.version = self._graph.version
            return
        row = state.row
        if row.get(u) is None or row.get(v) is None:
            self._mark_all_dirty(state)
            state.version = self._graph.version
            return
        self._taint(state, u, out_side=True)
        self._taint(state, v, out_side=False)
        state.version = self._graph.version

    def invalidate(self) -> None:
        """Quarantine the whole index (a note hook failed mid-update):
        every row dirty *and* missing, so both rule directions abstain
        until :meth:`observe_query` rebuilds from scratch."""
        state = self._state
        if state is None:
            return
        self._mark_all_dirty(state)
        state.missing = True
        state.version = self._graph.version

    def _propagate(self, state, start, carry, mat, dirty, forward) -> None:
        """BFS from ``start``, ORing the fixed ``carry`` into every row
        until containment (early-stop), a dirty row (its whole upstream
        is dirty by INV2), or the frontier cutoff (labels go missing)."""
        graph = self._graph
        row = state.row
        limit = INSERT_FRONTIER_LIMIT
        seen = {start}
        queue = deque((start,))
        touched = 0
        while queue:
            x = queue.popleft()
            rx = row.get(x)
            if rx is None:
                self._mark_missing(state)
                return
            if dirty[rx]:
                continue
            existing = mat[rx]
            merged = existing | carry
            if not np.any(merged != existing):
                continue
            mat[rx] = merged
            touched += 1
            if touched > limit:
                self._mark_missing(state)
                return
            for y in graph.neighbors(x, forward):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)

    def _taint(self, state, anchor: int, out_side: bool) -> None:
        """Mark ``anchor`` and its (post-mutation) ancestors dirty_out —
        or descendants dirty_in — stopping at already-dirty rows (their
        closure is covered by INV2) and bounded by :data:`DELETE_DIRTY_LIMIT`
        (overflow marks everything dirty, which is always sound)."""
        graph = self._graph
        row = state.row
        dirty = state.dirty_out if out_side else state.dirty_in
        limit = DELETE_DIRTY_LIMIT
        seen = {anchor}
        queue = deque((anchor,))
        marked = 0
        while queue:
            x = queue.popleft()
            rx = row.get(x)
            if rx is None:
                self._mark_all_dirty(state)
                return
            if dirty[rx]:
                continue
            dirty[rx] = True
            marked += 1
            if marked > limit:
                self._mark_all_dirty(state)
                return
            for y in graph.neighbors(x, not out_side):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if out_side:
            state.num_dirty_out += marked
        else:
            state.num_dirty_in += marked

    def _mark_missing(self, state) -> None:
        state.missing = True
        state.version = self._graph.version

    def _mark_all_dirty(self, state) -> None:
        state.dirty_out.fill(True)
        state.dirty_in.fill(True)
        state.num_dirty_out = len(state.ids)
        state.num_dirty_in = len(state.ids)

    # ------------------------------------------------------------------
    # Lazy rebuilds (read lock; graph frozen, swaps only)
    # ------------------------------------------------------------------
    def observe_query(self) -> None:
        """Demand-driven repair, called on the query path.

        After :data:`REBUILD_COOLDOWN` stale-hit queries, the first caller to
        win the (non-blocking) rebuild mutex repairs: partial when only a
        bounded dirty region exists, full when the labels are missing,
        version-desynced, or past the staleness threshold. The repaired
        state is swapped in atomically; concurrent readers keep whatever
        snapshot they already captured. Nothing is rebuilt while the
        graph is past the DAG's version (the state keeps abstaining).
        """
        state = self._state
        graph = self._graph
        if (
            state is not None
            and not state.missing
            and state.version == graph.version
            and state.num_dirty_out == 0
            and state.num_dirty_in == 0
        ):
            return
        self._demand += 1
        if state is not None and self._demand < REBUILD_COOLDOWN:
            return
        if self.dag.version != graph.version:
            return
        if not self._rebuild_mutex.acquire(blocking=False):
            return
        try:
            self._demand = 0
            state = self._state
            n = len(state.ids) if state is not None else 0
            stale = (
                max(state.num_dirty_out, state.num_dirty_in)
                if state is not None
                else 0
            )
            if (
                state is None
                or state.missing
                or state.version != graph.version
                or stale > STALENESS_THRESHOLD * n
            ):
                self.full_rebuilds += 1
                self._state = self._build_state()
            elif stale:
                rebuilt = self._partial_rebuild(state)
                if rebuilt is None:
                    self.full_rebuilds += 1
                    self._state = self._build_state()
                else:
                    self.partial_rebuilds += 1
                    self._state = rebuilt
        finally:
            self._rebuild_mutex.release()

    def _partial_rebuild(self, state) -> Optional[_LabelState]:
        """Recompute exactly the dirty rows on copied matrices.

        Clean neighbours contribute their exact rows (INV1). Returns
        ``None`` to escalate to a full rebuild on any inconsistency.
        """
        dl = state.dl.copy()
        bl = state.bl.copy()
        seeds = self._seed_matrix(state.ids, state.row)
        for dirty, mat, out_side in (
            (state.dirty_out, dl, True), (state.dirty_in, bl, False)
        ):
            rows = np.flatnonzero(dirty)
            if len(rows) and not self._recompute(
                state, rows, seeds, mat, out_side
            ):
                return None
        return _LabelState(state.version, state.ids, state.row, dl, bl)

    def _recompute(self, state, dirty_rows, seeds, mat, out_side) -> bool:
        """Rebuild ``mat``'s dirty rows a DAG component at a time.

        A row depends on its out-neighbours (DL) or in-neighbours (BL),
        which sit in the same component or one strictly higher (lower) in
        level, so descending (ascending) level order computes every
        dirty dependency first. INV2 makes the dirty rows a union of
        whole components; one only partly dirty escalates.
        """
        graph, row = self._graph, state.row
        comp, level = self.dag.components_of(state.ids[dirty_rows])
        order = np.lexsort((comp, -level if out_side else level))
        comp = comp[order]
        dirty_rows = dirty_rows[order]
        cuts = [0, *(np.flatnonzero(np.diff(comp)) + 1).tolist(), len(comp)]
        for a, b in zip(cuts, cuts[1:]):
            members = self.dag.members[int(comp[a])]
            if len(members) != b - a:
                return False
            pulled = [
                row.get(y)
                for m in members
                for y in graph.neighbors(m, out_side)
                if y not in members
            ]
            if None in pulled:
                return False
            rows = dirty_rows[a:b]
            mat[rows] = np.bitwise_or.reduce(
                np.concatenate((seeds[rows], mat[pulled])), axis=0
            )
        return True

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the current state is well formed.

        ``O(n + m)``: matrix shapes and dtypes, a sorted id table, dirty
        counters that match their masks, and — while the state is at the
        graph's version — INV2 edge by edge: every in-neighbour of a
        ``dirty_out`` row is ``dirty_out``, every out-neighbour of a
        ``dirty_in`` row is ``dirty_in`` (edges to a vertex that has no
        row yet are skipped).
        """
        state = self._state
        if state is None:
            return
        n = len(state.ids)
        for mat in (state.dl, state.bl):
            assert mat.shape == (n, self.words) and mat.dtype == np.uint64
        assert np.all(state.ids[1:] > state.ids[:-1]), "ids not sorted"
        for dirty, count in (
            (state.dirty_out, state.num_dirty_out),
            (state.dirty_in, state.num_dirty_in),
        ):
            assert dirty.shape == (n,) and dirty.dtype == bool
            assert count == np.count_nonzero(dirty), "dirty count drifted"
        if state.version != self._graph.version:
            return  # stale: every rule abstains
        row = state.row
        for u, v in self._graph.edges():
            ru, rv = row.get(u), row.get(v)
            if ru is not None and rv is not None:
                assert state.dirty_out[ru] or not state.dirty_out[rv], (
                    f"INV2: clean {u} reaches dirty_out {v}"
                )
                assert state.dirty_in[rv] or not state.dirty_in[ru], (
                    f"INV2: clean {v} is reached from dirty_in {u}"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stale_rows(self) -> int:
        state = self._state
        if state is None:
            return 0
        return max(state.num_dirty_out, state.num_dirty_in)

    def summary(self) -> Dict[str, object]:
        state = self._state
        return {
            "bits": self.words * _WORD_BITS,
            "landmarks": len(self._landmark_bit),
            "vertices": len(state.ids) if state is not None else 0,
            "version": state.version if state is not None else -1,
            "graph_version": self._graph.version,
            "missing": bool(state.missing) if state is not None else True,
            "stale_rows": self.stale_rows,
            "updates": self.updates,
            "full_rebuilds": self.full_rebuilds,
            "partial_rebuilds": self.partial_rebuilds,
            "stale_abstains": self.stale_abstains,
        }
