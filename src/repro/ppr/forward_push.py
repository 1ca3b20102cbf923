"""Forward push (Andersen, Chung, Lang — FOCS 2006).

Approximates the PPR vector ``ppr_s`` from a single source. Each step takes
a vertex ``u`` with ``r(u) / d_out(u) >= epsilon``, moves ``alpha * r(u)``
into its reserve, and distributes ``(1 - alpha) * r(u)`` evenly over its
out-neighbors. Terminates in ``O(1 / (alpha * epsilon))`` edge accesses.

The invariant maintained throughout (and checked by property tests)::

    ppr_s(t) = reserve(t) + sum_v residue(v) * ppr_v(t)

so reserves are always underestimates of the true PPR (Property 1's ">0"
test can produce false negatives — the weakness the paper's community
contraction repairs).
"""

from __future__ import annotations

from typing import Optional

from repro.graph.digraph import DynamicDiGraph
from repro.ppr.common import PushConfig, PushState, Worklist


def forward_push(
    graph: DynamicDiGraph,
    source: int,
    config: Optional[PushConfig] = None,
    state: Optional[PushState] = None,
    max_operations: Optional[int] = None,
) -> PushState:
    """Run forward push from ``source`` until no vertex is pushable.

    Passing a previous ``state`` with a smaller ``config.epsilon`` resumes
    the computation (push is monotone in ``epsilon``), which is exactly how
    IFCA's shrinking threshold loop re-enters the search.
    """
    if config is None:
        config = PushConfig()
    if source not in graph:
        raise KeyError(f"source vertex {source} not in graph")
    if state is None:
        state = PushState.indicator(source)
    alpha, epsilon = config.alpha, config.epsilon

    work = Worklist()
    for v, r in state.residue.items():
        d = graph.out_degree(v)
        if d > 0 and r / d >= epsilon:
            work.push(v)
        elif d == 0 and r > 0:
            # Dangling vertex: its residue can never move; it all becomes
            # reserve (the random walk is stuck and halts here).
            state.reserve[v] = state.reserve.get(v, 0.0) + r
            state.residue[v] = 0.0

    while work:
        if max_operations is not None and state.push_operations >= max_operations:
            break
        u = work.pop()
        d_u = graph.out_degree(u)
        r_u = state.residue.get(u, 0.0)
        if d_u == 0 or r_u / d_u < epsilon:
            continue
        state.push_operations += 1
        state.reserve[u] = state.reserve.get(u, 0.0) + alpha * r_u
        # Zero u's residue before distributing so a self-loop keeps its share.
        state.residue[u] = 0.0
        share = (1.0 - alpha) * r_u / d_u
        for v in graph.out_neighbors(u):
            state.edge_accesses += 1
            new_r = state.residue.get(v, 0.0) + share
            state.residue[v] = new_r
            d_v = graph.out_degree(v)
            if d_v > 0:
                if new_r / d_v >= epsilon:
                    work.push(v)
            else:
                state.reserve[v] = state.reserve.get(v, 0.0) + new_r
                state.residue[v] = 0.0
    return state
