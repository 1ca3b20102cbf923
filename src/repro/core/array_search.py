"""Array-state guided search: Alg. 3/4/5 on the frozen CSR snapshot.

The dict twins (:mod:`repro.core.guided`, :mod:`repro.core.contraction`,
:mod:`repro.core.bibfs`) run one Python iteration per *edge*; this module
runs the same three phases as whole-frontier numpy passes over a
:class:`~repro.graph.snapshot.CSRSnapshot`, one interpreter dispatch per
*sweep*; the Alg. 5 hand-off is the kernel BiBFS
(:func:`repro.graph.kernels.bibfs_loop`) run from this module's state.
:mod:`repro.core.ifca` picks between the two once per query,
when it builds the search context: the array path for all three phases
whenever ``params.use_kernels`` and a current-version snapshot is
already frozen (``graph.csr(build=False)``), the dict path for all three
otherwise (the switch off, or a mid-churn graph with no fresh snapshot).
The dict twin remains the authoritative, paper-faithful reference
implementation, and the array path must agree with it on *verdicts* for
every query (asserted across push styles × orders by
``tests/test_push_kernels.py``).

State layout
------------
All per-direction state lives in dense arrays of length ``n + 2`` over
the snapshot's compacted indices, with two reserved *super slots*:
index ``n`` is the forward super-vertex, ``n + 1`` the reverse one (the
array counterparts of the dict overlay's ``SUPER_FORWARD`` /
``SUPER_REVERSE`` sentinels). Contraction is CSR-native:

* ``remap`` (int64, shared by both directions) sends a stored CSR target
  index to its current reduced-graph representative — identity until a
  contraction assigns merged members to their slot. Remap chains have
  length <= 1 by construction: a member of one side's community can never
  be merged into the *other* side's super-vertex without the queries
  having already met (the other slot is visited from birth), so
  ``remap[remap[x]] == remap[x]`` always and one gather-time composition
  suffices.
* ``overlay`` (int64 per direction) is the super-vertex's stored
  adjacency: representative ids captured at contraction time, re-composed
  through ``remap`` on every later gather. Rebuilding it is one
  O(|community| + boundary edges) array pass over the members' CSR rows
  plus the previous overlay, with MEET/EXHAUSTED detection vectorized
  (``other_visited[overlay].any()`` / ``len(overlay) == 0``).

Degrees: ``deg`` holds the reduced directional degree used for thresholds
and forward-style distribution (CSR row lengths for real vertices — the
dict twin also charges the *raw* row length, super edges included — and
the overlay lengths on the slots); ``opp_deg`` holds the clamped raw
degree against the direction (the backward-push divisor, deliberately raw
rather than lumped, see ``core.guided``'s module docstring).

Counter contract
----------------
Shared with the dict twin and asserted in tests: ``push_operations``
counts vertex expansions, ``guided_edge_accesses`` counts adjacency
entries scanned (the full reduced row per expansion). Lambda calibration
reads these counters, so both paths must mean the same thing by them —
the *totals* can still differ per query because push is not
order-confluent and sweeps expand vertices the lazy heap may never
revisit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.contraction import ContractionOutcome
from repro.core.params import ORDER_GREEDY, PUSH_FORWARD, ResolvedParams
from repro.core.stats import QueryStats
from repro.graph import kernels
from repro.graph.budget import Budget
from repro.graph.digraph import DynamicDiGraph


def _degree_tables(snapshot):
    """Per-snapshot float64 degree tables, cached on the snapshot.

    ``(out_deg, in_deg, out_clamped, in_clamped)`` — the raw directional
    degrees and their ``max(d, 1)`` clamps. Snapshots are immutable, so
    the cache can never go stale; every query on the same frozen view
    shares the four arrays.
    """
    cached = getattr(snapshot, "_push_degree_tables", None)
    if cached is None:
        out_deg = (snapshot.out_offsets[1:] - snapshot.out_offsets[:-1]).astype(
            np.float64
        )
        in_deg = (snapshot.in_offsets[1:] - snapshot.in_offsets[:-1]).astype(
            np.float64
        )
        cached = (
            out_deg,
            in_deg,
            np.maximum(out_deg, 1.0),
            np.maximum(in_deg, 1.0),
        )
        snapshot._push_degree_tables = cached
    return cached


class ArrayDirectionState:
    """Dense per-direction search state (the array twin of
    :class:`~repro.core.state.DirectionState`)."""

    __slots__ = (
        "forward",
        "residue",
        "visited",
        "explored",
        "explored_count",
        "int_edges",
        "super_slot",
        "has_super",
        "overlay",
        "deg",
        "opp_deg",
        "cand",
        "merged_count",
        "contractions",
    )

    def __init__(self, forward: bool, size: int, super_slot: int) -> None:
        self.forward = forward
        self.residue = np.zeros(size, dtype=np.float64)
        self.visited = np.zeros(size, dtype=bool)
        self.explored = np.zeros(size, dtype=bool)
        self.explored_count = 0
        self.int_edges = 0
        self.super_slot = super_slot
        self.has_super = False
        self.overlay = np.empty(0, dtype=np.int64)
        self.deg = None  # bound by the context (shared until contraction)
        self.opp_deg = None
        self.cand = np.empty(0, dtype=np.int64)  # sorted residue superset
        self.merged_count = 0
        self.contractions = 0


class ArraySearchContext:
    """Everything one array-path IFCA query needs.

    Implements the same ``progress()`` protocol as
    :class:`~repro.core.state.SearchContext`, which is all the cost model
    reads; the reduced-size counters (``n_reduced`` / ``m_reduced`` /
    ``epsilon_cur``) follow the dict context's bookkeeping exactly.
    """

    __slots__ = (
        "graph",
        "snapshot",
        "params",
        "source",
        "target",
        "n_base",
        "fwd",
        "rev",
        "remap",
        "n_reduced",
        "m_reduced",
        "epsilon_cur",
        "budget",
    )

    def __init__(
        self,
        graph: DynamicDiGraph,
        snapshot,
        params: ResolvedParams,
        source: int,
        target: int,
        budget: Optional[Budget] = None,
    ) -> None:
        self.graph = graph
        self.snapshot = snapshot
        self.params = params
        self.source = source
        self.target = target
        n = snapshot.num_vertices
        self.n_base = n
        size = n + 2
        out_deg, in_deg, out_clamped, in_clamped = _degree_tables(snapshot)

        fwd = ArrayDirectionState(True, size, n)
        rev = ArrayDirectionState(False, size, n + 1)
        # Until the first contraction no super slot can appear in any
        # candidate/frontier/receiver array, so both directions borrow the
        # snapshot's shared size-``n`` degree tables — no per-query copies.
        # :meth:`_materialize_overlay_state` promotes them to private
        # slot-extended copies (and builds ``remap``) when a super-vertex
        # first exists.
        fwd.deg = out_deg
        fwd.opp_deg = in_clamped
        rev.deg = in_deg
        rev.opp_deg = out_clamped

        si = snapshot.index_of(source)
        ti = snapshot.index_of(target)
        fwd.residue[si] = 1.0
        fwd.visited[si] = True
        fwd.cand = np.array([si], dtype=np.int64)
        rev.residue[ti] = 1.0
        rev.visited[ti] = True
        rev.cand = np.array([ti], dtype=np.int64)
        self.fwd = fwd
        self.rev = rev
        self.remap = None  # identity until the first contraction
        self.n_reduced = graph.num_vertices
        self.m_reduced = graph.num_edges
        self.epsilon_cur = params.epsilon_init
        self.budget = budget

    # ------------------------------------------------------------------
    def other(self, state: ArrayDirectionState) -> ArrayDirectionState:
        return self.rev if state.forward else self.fwd

    def offsets_targets(self, state: ArrayDirectionState):
        if state.forward:
            return self.snapshot.out_offsets, self.snapshot.out_targets
        return self.snapshot.in_offsets, self.snapshot.in_targets

    def _materialize_overlay_state(self) -> None:
        """First contraction anywhere: build the identity ``remap`` and
        promote both directions' shared degree tables to private
        slot-extended copies.

        Deferred to here so contraction-free queries (the vast majority on
        well-connected graphs) never pay the three O(n) allocations.
        Directional reduced degrees: the own slot starts at 0 (overlay not
        built yet; :meth:`refresh_super_degrees` runs right after), the
        *other* slot at its clamped overlay size (1) — the dict twin's
        ``degree_of`` for a foreign sentinel. Backward-push divisors keep
        the clamped raw degree against the search direction, with 1.0 on
        the slots (a stored overlay entry can reference the foreign slot
        only transiently — referencing it is a meet).
        """
        if self.remap is not None:
            return
        n = self.n_base
        size = n + 2
        self.remap = np.arange(size, dtype=np.int64)
        out_deg, in_deg, out_clamped, in_clamped = _degree_tables(self.snapshot)
        fwd, rev = self.fwd, self.rev
        fwd.deg = np.empty(size, dtype=np.float64)
        fwd.deg[:n] = out_deg
        fwd.deg[n] = 0.0
        fwd.deg[n + 1] = 1.0
        rev.deg = np.empty(size, dtype=np.float64)
        rev.deg[:n] = in_deg
        rev.deg[n] = 1.0
        rev.deg[n + 1] = 0.0
        fwd.opp_deg = np.empty(size, dtype=np.float64)
        fwd.opp_deg[:n] = in_clamped
        fwd.opp_deg[n:] = 1.0
        rev.opp_deg = np.empty(size, dtype=np.float64)
        rev.opp_deg[:n] = out_clamped
        rev.opp_deg[n:] = 1.0

    def refresh_super_degrees(self) -> None:
        """Re-derive the four slot entries from the current overlays."""
        fwd, rev = self.fwd, self.rev
        own_f = float(len(fwd.overlay))
        own_r = float(len(rev.overlay))
        fwd.deg[fwd.super_slot] = own_f
        fwd.deg[rev.super_slot] = max(own_r, 1.0)
        rev.deg[rev.super_slot] = own_r
        rev.deg[fwd.super_slot] = max(own_f, 1.0)
        fwd.opp_deg[rev.super_slot] = max(own_r, 1.0)
        rev.opp_deg[fwd.super_slot] = max(own_f, 1.0)

    # ------------------------------------------------------------------
    # Cost-model progress protocol (shared with SearchContext)
    # ------------------------------------------------------------------
    def progress(self):
        """``(explored_f, explored_r, int_edges_f, int_edges_r, started)``."""
        fwd, rev = self.fwd, self.rev
        started = bool(
            fwd.explored_count
            or rev.explored_count
            or fwd.merged_count
            or rev.merged_count
            or fwd.contractions
            or rev.contractions
        )
        return (
            fwd.explored_count,
            rev.explored_count,
            fwd.int_edges,
            rev.int_edges,
            started,
        )


# ----------------------------------------------------------------------
# Alg. 3 — one guided drain
# ----------------------------------------------------------------------
def array_guided_search(
    ctx: ArraySearchContext, state: ArrayDirectionState, stats: QueryStats
) -> bool:
    """Run one drain at ``ctx.epsilon_cur`` through the sweep kernel.

    Returns ``True`` iff the two searches met. Budget formula, counter
    semantics, and the dangling/self-loop rules all mirror
    :func:`repro.core.guided.guided_search`; only the push *order* differs
    (threshold-synchronous sweeps instead of a lazy worklist), which is
    free by Alg. 3's "choose any u".
    """
    params = ctx.params
    forward_style = params.push_style == PUSH_FORWARD
    scale = 1.0 if forward_style else max(ctx.graph.average_degree, 1.0)
    push_budget = int(
        64
        + 10.0 * scale / (params.alpha * params.epsilon_pre)
        + 8 * ctx.n_reduced
    )
    offsets, targets = ctx.offsets_targets(state)
    met, cand, pushes, accesses, int_edges, explored_added = kernels.csr_push_drain(
        offsets,
        targets,
        state.deg,
        state.opp_deg,
        ctx.remap,
        state.overlay,
        state.super_slot,
        state.cand,
        state.residue,
        state.visited,
        state.explored,
        ctx.other(state).visited,
        ctx.epsilon_cur,
        params.alpha,
        forward_style,
        params.push_order == ORDER_GREEDY,
        push_budget,
    )
    state.cand = cand
    state.int_edges += int_edges
    state.explored_count += explored_added
    stats.guided_edge_accesses += accesses
    stats.push_operations += pushes
    # One drain is the checkpoint granularity on the array path: sweeps
    # complete whole frontiers, so state is consistent exactly here. A met
    # answer is never discarded — the budget only interrupts open searches.
    budget = ctx.budget
    if budget is not None:
        budget.charge(accesses)
        if not met:
            budget.checkpoint()
    return met


# ----------------------------------------------------------------------
# Alg. 4 — CSR-native community contraction
# ----------------------------------------------------------------------
def array_community_contraction(
    ctx: ArraySearchContext, state: ArrayDirectionState, stats: QueryStats
) -> ContractionOutcome:
    """Contract the explored set into the direction's super slot.

    The dict twin's per-edge rebuild becomes: flip ``remap`` for the
    members (one scatter), gather their CSR rows plus the previous
    overlay, compose ``remap``, drop intra-community entries, and
    ``np.unique`` the boundary — O(|community| + boundary edges) with
    MEET (``other.visited[overlay].any()``) and EXHAUSTED
    (``len(overlay) == 0``) read off the result. Trigger conditions and
    all reduced-size bookkeeping mirror
    :func:`repro.core.contraction.community_contraction`.
    """
    if ctx.epsilon_cur >= ctx.params.epsilon_pre:
        return ContractionOutcome.NOT_TRIGGERED
    if state.explored_count == 0:
        return ContractionOutcome.NOT_TRIGGERED

    other = ctx.other(state)
    slot = state.super_slot
    ctx._materialize_overlay_state()
    if not state.has_super:
        state.has_super = True
        ctx.n_reduced += 1
        state.visited[slot] = True

    members = np.flatnonzero(state.explored)
    real = members[members < ctx.n_base]
    ctx.remap[real] = slot

    offsets, targets = ctx.offsets_targets(state)
    raw = kernels.gather_rows(offsets, targets, real)
    if len(state.overlay):
        # The previous overlay is always re-merged (whether or not the
        # old super was re-explored this round, its stored boundary still
        # holds frontier vertices).
        raw = np.concatenate([raw, state.overlay])
    mapped = ctx.remap[raw]
    overlay = np.unique(mapped[mapped != slot])
    met_other = bool(len(overlay)) and bool(other.visited[overlay].any())

    removed = len(real)
    ctx.n_reduced -= removed
    ctx.m_reduced = max(ctx.m_reduced - state.int_edges, len(overlay))
    if state.forward:
        stats.merged_forward += removed
        stats.contractions_forward += 1
    else:
        stats.merged_reverse += removed
        stats.contractions_reverse += 1
    state.merged_count += removed
    state.visited[real] = False
    state.residue[real] = 0.0
    state.explored[:] = False
    state.explored_count = 0
    state.int_edges = 0
    state.residue[slot] = 1.0
    # Merged members drop out of the candidate list at the next sweep's
    # residue filter (their residue was just zeroed); the slot joins it.
    state.cand = np.unique(np.append(state.cand, slot))
    state.overlay = overlay
    state.contractions += 1
    ctx.refresh_super_degrees()
    ctx.epsilon_cur = ctx.params.epsilon_init

    if met_other:
        return ContractionOutcome.MEET
    if len(overlay) == 0:
        return ContractionOutcome.EXHAUSTED
    return ContractionOutcome.CONTRACTED


# ----------------------------------------------------------------------
# Alg. 5 — the hand-off frontiers for the kernel BiBFS
# ----------------------------------------------------------------------
def handoff_frontier(state: ArrayDirectionState):
    """Visited-but-unexplored vertices, read off the candidate list.

    Residue is only ever zeroed where ``explored`` is set (frontier drains,
    dangling parking, contraction members), so every visited-unexplored
    vertex still holds residue and therefore sits in ``cand`` — an
    O(|cand|) extraction instead of an O(n) scan of the state arrays.
    The hand-off runs :func:`repro.graph.kernels.bibfs_loop` from these
    frontiers, through ``remap`` and the overlays.
    """
    cand = state.cand
    return cand[state.visited[cand] & ~state.explored[cand]]
