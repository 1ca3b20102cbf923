"""Frontier-initialized bidirectional BFS — Algorithm 5.

The BiBFS that takes over after the cost model switches strategies. It
starts from the guided search's frontiers, inherits the visited sets, runs
on the reduced graph (mapping adjacency through the contraction overlay),
and alternates directions at layer granularity.

Also usable stand-alone from ``{s}`` / ``{t}`` frontiers on a fresh
context, which is exactly the plain BiBFS competitor. All per-direction
bindings are hoisted out of the layer loop: on sparse graphs layers hold
only a couple of vertices, so per-layer setup would otherwise dominate.

This is the dict twin only: a query that started on the array state
hands off through :func:`repro.core.array_search.array_frontier_bibfs`,
and one that started on dicts finishes here, whatever was frozen since.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.state import SearchContext
from repro.core.stats import QueryStats


def frontier_bibfs(
    ctx: SearchContext,
    frontier_f: Iterable[int],
    frontier_r: Iterable[int],
    stats: QueryStats,
) -> bool:
    """Run Alg. 5 to completion; returns whether ``s -> t``."""
    fwd, rev = ctx.fwd, ctx.rev
    budget = ctx.budget
    visited_f, visited_r = fwd.visited, rev.visited
    adj_f = ctx.graph.adjacency(True)
    adj_r = ctx.graph.adjacency(False)
    find_get = ctx.find.get
    super_f, super_adj_f = fwd.super_sentinel, fwd.super_adj
    super_r, super_adj_r = rev.super_sentinel, rev.super_adj
    explored_f, explored_r = fwd.explored, rev.explored

    cur_f: List[int] = list(frontier_f)
    cur_r: List[int] = list(frontier_r)
    accesses = 0
    charged = 0
    try:
        # An exhausted frontier proves the negative: meets are tested the
        # moment a vertex enters a visited set, so an empty frontier means
        # that side's visited set is its endpoint's complete closure and
        # is disjoint from the other side — no future layer can meet it.
        while cur_f and cur_r:
            if budget is not None:
                # Layer boundaries keep explored consistent with the
                # enumerated adjacency, so a raise here exports soundly.
                delta = accesses - charged
                charged = accesses
                budget.checkpoint(delta)
            next_f: List[int] = []
            for u in cur_f:
                for w in (super_adj_f if u == super_f else adj_f[u]):
                    accesses += 1
                    w = find_get(w, w)
                    if w == u or w in visited_f:
                        continue
                    if w in visited_r:
                        return True
                    visited_f.add(w)
                    next_f.append(w)
            explored_f.update(cur_f)
            cur_f = next_f
            if not cur_f:
                break
            next_r: List[int] = []
            for u in cur_r:
                for w in (super_adj_r if u == super_r else adj_r[u]):
                    accesses += 1
                    w = find_get(w, w)
                    if w == u or w in visited_r:
                        continue
                    if w in visited_f:
                        return True
                    visited_r.add(w)
                    next_r.append(w)
            explored_r.update(cur_r)
            cur_r = next_r
        return False
    finally:
        if budget is not None:
            budget.charge(accesses - charged)
        stats.bibfs_edge_accesses += accesses
