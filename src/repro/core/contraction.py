"""Community contraction — Algorithm 4.

Once the shrinking threshold drops below ``epsilon_pre``, the explored
vertices around an endpoint have PPR above ``O(epsilon_pre)`` and form a
superset of the top-PPR community (the Andersen–Chung–Lang correlation the
paper exploits), so they are contracted into a super-vertex and the search
restarts on the reduced graph.

Per DESIGN.md we contract exactly the *explored* set: visited-but-
unexplored frontier vertices stay in the graph, become neighbors of the
super-vertex (each received residue over an edge from an explored vertex),
and keep their residues. This is the reading required by the paper's own
correctness proof (Thm. 1).

The contraction returns one of four outcomes; two of them terminate the
query:

* ``MEET`` — while rebuilding the super-vertex adjacency, an edge from this
  side's community to a vertex visited by the *other* side was found, which
  already proves ``s -> t``;
* ``EXHAUSTED`` — the new super-vertex has degree 0, i.e. this side's
  reachable set has been enumerated completely without meeting the other
  side, proving the query negative (a safe strengthening of Alg. 2's
  line 16, which waits for *both* sides to exhaust).

This module is the *authoritative* semantics. On the array-state path,
:func:`repro.core.array_search.array_community_contraction` performs the
same merge as an O(|community| + boundary edges) pass over the CSR rows —
a vertex-remap array plus an overlay edge buffer composed at gather time,
with the same four outcomes detected vectorized — and is held equivalent
by ``tests/test_push_kernels.py``.
"""

from __future__ import annotations

import enum

from repro.core.state import DirectionState, SearchContext
from repro.core.stats import QueryStats


class ContractionOutcome(enum.Enum):
    NOT_TRIGGERED = "not_triggered"
    CONTRACTED = "contracted"
    MEET = "meet"
    EXHAUSTED = "exhausted"


def community_contraction(
    ctx: SearchContext, state: DirectionState, stats: QueryStats
) -> ContractionOutcome:
    """Run Alg. 4 for one direction if its trigger condition holds."""
    if ctx.epsilon_cur >= ctx.params.epsilon_pre:
        return ContractionOutcome.NOT_TRIGGERED
    if not state.explored:
        # Nothing new was explored since the last contraction; re-running
        # would reset epsilon and loop forever. Let the threshold keep
        # shrinking instead (see DESIGN.md, termination discussion).
        return ContractionOutcome.NOT_TRIGGERED

    other = ctx.other(state)
    sentinel = state.super_sentinel
    first_contraction = not state.has_super
    if first_contraction:
        state.super_id = sentinel
        ctx.n_reduced += 1
        state.visited.add(sentinel)

    # The newly merged set: everything explored since the last contraction
    # (which includes the previous super-vertex whenever it was expanded).
    new_members = set(state.explored)
    absorbing_super = sentinel in new_members
    to_scan = list(new_members)
    if not absorbing_super and not first_contraction:
        # The old super-vertex was not re-explored this round; its
        # adjacency still holds frontier vertices and must be re-merged
        # into the rebuilt list.
        to_scan.append(sentinel)

    for v in new_members:
        if v != sentinel:
            ctx.find[v] = sentinel
            state.merged.add(v)

    # Rebuild the super-vertex adjacency: all neighbors of the scanned
    # vertices that are outside the merged community, deduplicated.
    new_adj = []
    seen = set()
    met_other = False
    old_super_adj = state.super_adj
    for v in to_scan:
        raw = old_super_adj if v == sentinel else ctx.graph.neighbors(v, state.forward)
        for w_raw in raw:
            w = ctx.find.get(w_raw, w_raw)
            if w == sentinel or w in seen:
                continue
            if w in other.visited:
                met_other = True
            seen.add(w)
            new_adj.append(w)
    state.super_adj = new_adj

    # Bookkeeping: merged vertices leave the reduced graph entirely.
    removed = len(new_members) - (1 if absorbing_super else 0)
    ctx.n_reduced -= removed
    ctx.m_reduced = max(ctx.m_reduced - state.int_edges, len(new_adj))
    stats.merged_forward += removed if state.forward else 0
    stats.merged_reverse += removed if not state.forward else 0
    for v in new_members:
        if v != sentinel:
            state.visited.discard(v)
            state.residue.pop(v, None)
    state.explored.clear()
    state.int_edges = 0
    state.residue[sentinel] = 1.0
    state.contractions += 1
    if state.forward:
        stats.contractions_forward += 1
    else:
        stats.contractions_reverse += 1
    ctx.epsilon_cur = ctx.params.epsilon_init

    if met_other:
        return ContractionOutcome.MEET
    if not new_adj:
        return ContractionOutcome.EXHAUSTED
    return ContractionOutcome.CONTRACTED
