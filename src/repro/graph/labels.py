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

Dynamics follow DBL's insert side. DBL cannot handle deletions; here a
delete that may cut reach makes the labels *stale*, and a stale state
is rebuilt from scratch. A :class:`_LabelState` is exact for
``state.version``; while that is not the graph's version, every rule
abstains.

* **insert** is monotone: ``add_edge(u, v)`` ORs ``DL[v]`` into ``u`` and
  its ancestors (symmetrically ``BL[u]`` into ``v`` and its descendants),
  early-stopping where the carry is already contained. The state is
  stamped at the new version only if it was exact just before the
  insert, both endpoints have rows, and each side's propagation updated
  at most :data:`INSERT_FRONTIER_LIMIT` rows. Anything else leaves it
  stale.
* **delete** can only shrink reach sets, so the old labels would
  over-approximate. A delete the fast-path pruner proved redundant
  (``removes_reachability=False``) keeps every label exact and is
  stamped; any other leaves the state stale.
* **rebuild** — once :data:`REBUILD_COOLDOWN` queries have met a stale
  state, :meth:`LabelIndex.observe_query` runs the one vectorized full
  build and swaps the fresh :class:`_LabelState` in atomically, so
  concurrent readers keep a coherent snapshot. The build reads
  components and levels from the index's
  :class:`~repro.graph.dag.DynamicDAG` (in a service, the pruner's), and
  it does not run once the graph is past the DAG's version.

Stamping is each note hook's last statement, so a hook that raises
leaves the state stale: a failed update is quarantined by construction.

The trade: there is no partial repair. On ``churn_point``'s update
schedule (dense 10k graph, 300 updates with 90 deletes, seeds 1-3)
exactly one delete cut reach, and it reached every row, so a partial
repair never ran. On the small ``repro chaos`` graphs (pa1500, 1 000
ops) the 5-9 partial repairs of a run become full builds of ~6 ms each,
and during a stale window rows the delete did not touch abstain too. If
a workload shows small-region deletes paying for full builds (a
search-heavy churn workload, say), dirty-row repair comes back with that
workload as its measurement.

The property suite in ``tests/test_labels.py`` checks the contract
against a fresh build and a BFS oracle under churn: after every update
the state either equals a fresh build bit for bit at the graph's
version, or abstains on every pair.

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

#: Rows one insert propagation may update before it gives up and leaves
#: the state stale (every rule abstains until the next rebuild).
INSERT_FRONTIER_LIMIT = 4096
#: Bits per label side per vertex, a multiple of 64: word 0 is the exact
#: landmark word, the rest are bloom words.
LABEL_BITS = 256
#: Stale-hit queries before a rebuild is attempted, so a churn burst
#: does not rebuild per query.
REBUILD_COOLDOWN = 64


class _LabelState:
    """One label snapshot, exact for the graph at ``version`` (arrays
    mutate in place only under the service write lock; rebuilds swap
    whole states)."""

    __slots__ = ("version", "ids", "row", "dl", "bl", "ids_are_rows")

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


class LabelIndex:
    """Versioned DL/BL label matrices over the graph of one :class:`DynamicDAG`.

    Both mutating entry points (``note_insert`` / ``note_delete``) must
    run under the owning service's write lock; ``check`` / ``query_many``
    / ``observe_query`` run under its read lock. The index never takes
    the service lock itself.

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
        dl, bl = state.dl, state.bl
        if int(dl[rs, 0]) & int(bl[rt, 0]):
            return True
        if np.any(dl[rt] & ~dl[rs]) or np.any(bl[rs] & ~bl[rt]):
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
        ds = state.dl[si]
        bt = state.bl[ti]
        pos = ok & ((ds[:, 0] & bt[:, 0]) != np.uint64(0))
        out[pos] = 1
        dt = state.dl[ti]
        bs = state.bl[si]
        neg = (
            ok
            & ~pos
            & (np.any(dt & ~ds, axis=1) | np.any(bs & ~bt, axis=1))
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
        """In-place OR propagation for one applied ``add_edge(u, v)``.

        Stamps the state at the graph's version only when it was exact
        just before this insert, both endpoints have rows and neither
        propagation passed :data:`INSERT_FRONTIER_LIMIT`; anything else
        (a new vertex, an overflow) leaves it stale.
        """
        state = self._state
        if state is None:
            return
        self.updates += 1
        if not self._was_exact(state):
            return
        ru = state.row.get(u)
        rv = state.row.get(v)
        if ru is None or rv is None:
            return
        if u != v and not (
            self._propagate(state, u, state.dl[rv].copy(), state.dl, False)
            and self._propagate(state, v, state.bl[ru].copy(), state.bl, True)
        ):
            return
        state.version = self._graph.version

    def note_delete(
        self, u: int, v: int, removes_reachability: bool = True
    ) -> None:
        """Stamp or go stale for one applied ``remove_edge(u, v)``.

        ``removes_reachability=False`` (the fast-path pruner proved the
        deleted edge was redundant — a parallel DAG edge remains or the
        SCC held) keeps every label exact: reach sets did not change, so
        a state exact just before the delete is stamped. Any other delete
        may leave labels over-approximating, so the state goes stale.
        """
        state = self._state
        if state is None:
            return
        self.updates += 1
        if (u == v or not removes_reachability) and self._was_exact(state):
            state.version = self._graph.version

    def _was_exact(self, state) -> bool:
        """Whether ``state`` was exact just before the edge update the
        graph just applied. An update between existing vertices moves the
        version by exactly one; one that added a vertex moves it further
        and leaves the state stale, as it must (the vertex has no row)."""
        return state.version == self._graph.version - 1

    def _propagate(self, state, start, carry, mat, forward) -> bool:
        """BFS from ``start``, ORing the fixed ``carry`` into every row
        until containment (early-stop). ``False`` once more than
        :data:`INSERT_FRONTIER_LIMIT` rows changed: the rows are then
        under-approximated and the caller leaves the state stale."""
        graph = self._graph
        row = state.row
        limit = INSERT_FRONTIER_LIMIT
        seen = {start}
        queue = deque((start,))
        touched = 0
        while queue:
            x = queue.popleft()
            rx = row[x]
            existing = mat[rx]
            merged = existing | carry
            if not np.any(merged != existing):
                continue
            mat[rx] = merged
            touched += 1
            if touched > limit:
                return False
            for y in graph.neighbors(x, forward):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return True

    # ------------------------------------------------------------------
    # Lazy rebuilds (read lock; graph frozen, swaps only)
    # ------------------------------------------------------------------
    def observe_query(self) -> None:
        """Demand-driven rebuild, called on the query path.

        After :data:`REBUILD_COOLDOWN` queries have met a stale state, the
        first caller to win the (non-blocking) rebuild mutex runs the full
        build and swaps the fresh state in atomically; concurrent readers
        keep whatever snapshot they already captured. Nothing is rebuilt
        while the graph is past the DAG's version (the state keeps
        abstaining).
        """
        state = self._state
        graph = self._graph
        if state is not None and state.version == graph.version:
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
            if state is None or state.version != graph.version:
                self.full_rebuilds += 1
                self._state = self._build_state()
        finally:
            self._rebuild_mutex.release()

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the current state is well formed.

        ``O(n)``: matrix shapes and dtypes, a sorted id table, and — while
        the state is exact — one row per graph vertex (an update that adds
        a vertex must leave the state stale).
        """
        state = self._state
        if state is None:
            return
        n = len(state.ids)
        for mat in (state.dl, state.bl):
            assert mat.shape == (n, self.words) and mat.dtype == np.uint64
        assert np.all(state.ids[1:] > state.ids[:-1]), "ids not sorted"
        if state.version == self._graph.version:
            assert n == self._graph.num_vertices, (
                f"exact state has {n} rows for "
                f"{self._graph.num_vertices} vertices"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        state = self._state
        return {
            "bits": self.words * _WORD_BITS,
            "landmarks": len(self._landmark_bit),
            "vertices": len(state.ids) if state is not None else 0,
            "version": state.version if state is not None else -1,
            "graph_version": self._graph.version,
            "updates": self.updates,
            "full_rebuilds": self.full_rebuilds,
            "stale_abstains": self.stale_abstains,
        }
