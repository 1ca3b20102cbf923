"""Bidirectional probability-guided search — Algorithm 3.

One invocation drains every vertex whose normalized residue is at or above
the current threshold ``epsilon_cur``, pushing residue along the search
direction's edges on the reduced graph. Returns ``True`` on a bidirectional
meet (a vertex visited from both directions), which proves ``s -> t``.

Deviations from the pseudocode, all behavior-preserving:

* residue is zeroed *before* distribution so self-loops keep their share;
* dangling vertices (no edges in the search direction) are marked explored
  immediately — their residue can never move, and treating them as explored
  lets community contraction absorb them (required for exhaustion
  detection when the source itself is dangling);
* backward-style distribution divides by the *raw* receiver's degree, not
  the contracted one: several raw edges mapping into the super-vertex with
  a lumped divisor would otherwise amplify residue mass around
  super-vertex cycles (spectral radius above 1) and the drain would never
  terminate;
* each invocation carries a push budget of a small multiple of Lemma 1's
  bound. A drain that exceeds it returns normally — stopping Alg. 3 early
  at any point is always sound ("choose any u" never *requires* a push),
  and the budget converts pathological residue circulation at extreme
  thresholds into ordinary main-loop rounds bounded by
  :data:`repro.core.ifca.MAX_ROUNDS`.

Implementation note: this is the hottest loop in the package, so the
adjacency map, overlay, and per-style weighting are all bound to locals —
the measured per-operation ratio against BiBFS (the cost model's
``lambda``) depends directly on this loop's constant factor.

This module is the *authoritative* semantics. When a current CSR
snapshot exists, :func:`repro.core.array_search.array_guided_search`
drains the same rung with whole-frontier numpy sweeps
(:func:`repro.graph.kernels.csr_push_drain`); it is held
answer-equivalent to this loop by ``tests/test_push_kernels.py`` and
shares the counter contract (one push per expansion, one edge access
per adjacency entry).
"""

from __future__ import annotations

import heapq

from repro.core.params import ORDER_GREEDY, PUSH_FORWARD
from repro.core.state import DirectionState, SearchContext
from repro.core.stats import QueryStats

#: Pushes between cooperative :class:`~repro.graph.budget.Budget`
#: checkpoints inside one guided drain. Smaller values tighten deadline
#: adherence at the price of a clock read per interval; irrelevant when
#: a query carries no budget. Read per drain.
BUDGET_CHECK_INTERVAL = 256


def guided_search(
    ctx: SearchContext, state: DirectionState, stats: QueryStats
) -> bool:
    """Run Alg. 3 for one direction at ``ctx.epsilon_cur``.

    Returns ``True`` iff the two searches met (``s -> t`` proven).
    """
    epsilon = ctx.epsilon_cur
    alpha = ctx.params.alpha
    one_minus_alpha = 1.0 - alpha
    forward_style = ctx.params.push_style == PUSH_FORWARD
    greedy = ctx.params.push_order == ORDER_GREEDY
    other_visited = ctx.other(state).visited
    # Safety valve: a small multiple of Lemma 1's per-drain bound at the
    # contraction threshold (x d_avg for backward push), plus a graph-size
    # term so tiny epsilon_pre values cannot starve large frontiers.
    scale = 1.0 if forward_style else max(ctx.graph.average_degree, 1.0)
    push_budget = int(
        64
        + 10.0 * scale / (alpha * ctx.params.epsilon_pre)
        + 8 * ctx.n_reduced
    )

    # Cooperative interruption: charge accrued edge accesses and test the
    # budget every ``BUDGET_CHECK_INTERVAL`` pushes; a raise ends the query.
    budget = ctx.budget
    check_interval = BUDGET_CHECK_INTERVAL
    charged = 0
    if budget is not None:
        budget.checkpoint()

    # Local bindings for the hot loop.
    residue = state.residue
    visited = state.visited
    explored = state.explored
    adj = ctx.graph.adjacency(state.forward)
    opposite_adj = ctx.graph.adjacency(not state.forward)
    find = ctx.find
    find_get = find.get
    super_id = state.super_sentinel
    super_adj = state.super_adj
    edge_accesses = 0
    pushes = 0

    def degree_of(v: int) -> int:
        if v == super_id:
            return len(state.super_adj)
        if v < 0:
            return max(len(ctx.other(state).super_adj), 1)
        return len(adj[v])

    # Seed the worklist with every currently pushable vertex. The greedy
    # discipline is a lazy max-heap on the normalized residue at enqueue
    # time: stale entries are re-validated on pop, duplicates are allowed
    # (bounded by the number of pushes), and correctness never depends on
    # the order — Alg. 3 says "choose any u".
    work = []
    in_work = set()
    for v, r in residue.items():
        if r <= 0.0:
            continue
        d = degree_of(v)
        if d == 0:
            residue[v] = 0.0
            explored.add(v)
        elif (r / d >= epsilon) if forward_style else (r >= epsilon):
            if greedy:
                work.append(((-r / d if forward_style else -r), v))
            else:
                work.append(v)
                in_work.add(v)
    if greedy:
        heapq.heapify(work)

    met = False
    while work:
        if greedy:
            _, u = heapq.heappop(work)
        else:
            u = work.pop()
            in_work.discard(u)
        r_u = residue.get(u, 0.0)
        if r_u <= 0.0:
            continue
        neighbors = super_adj if u == super_id else adj[u]
        d_u = len(neighbors)
        if d_u == 0:
            residue[u] = 0.0
            explored.add(u)
            continue
        if (r_u / d_u < epsilon) if forward_style else (r_u < epsilon):
            continue
        if pushes >= push_budget:
            break
        pushes += 1
        if budget is not None and pushes % check_interval == 0:
            budget.checkpoint(edge_accesses - charged)
            charged = edge_accesses
        if u not in explored:
            explored.add(u)
            state.int_edges += d_u
        residue[u] = 0.0
        fwd_share = one_minus_alpha * r_u / d_u  # forward-style share
        back_r = one_minus_alpha * r_u  # backward-style numerator
        for w_raw in neighbors:
            edge_accesses += 1
            w = find_get(w_raw, w_raw)
            if w == u:
                continue  # overlay self-loop (edge into the same super)
            if w not in visited:
                if w in other_visited:
                    met = True
                    break
                visited.add(w)
            if forward_style:
                new_r = residue.get(w, 0.0) + fwd_share
                residue[w] = new_r
                d_w = degree_of(w)
                if d_w == 0:
                    residue[w] = 0.0
                    explored.add(w)
                elif new_r / d_w >= epsilon:
                    if greedy:
                        heapq.heappush(work, (-new_r / d_w, w))
                    elif w not in in_work:
                        work.append(w)
                        in_work.add(w)
            else:
                # Backward push: divide by the *raw* receiver's degree
                # against the edge direction (see module docstring — the
                # lumped super-vertex degree would amplify mass).
                if w_raw >= 0:
                    divisor = max(len(opposite_adj[w_raw]), 1)
                else:
                    divisor = max(len(ctx.other(state).super_adj), 1)
                new_r = residue.get(w, 0.0) + back_r / divisor
                residue[w] = new_r
                if new_r >= epsilon:
                    if greedy:
                        heapq.heappush(work, (-new_r, w))
                    elif w not in in_work:
                        work.append(w)
                        in_work.add(w)
        if met:
            break

    if budget is not None:
        budget.charge(edge_accesses - charged)
    stats.guided_edge_accesses += edge_accesses
    stats.push_operations += pushes
    return met
