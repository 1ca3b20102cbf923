"""Bidirectional BFS on dict adjacency: plain BiBFS and Algorithm 5.

:func:`frontier_bibfs` is the BiBFS that takes over after the cost model
switches strategies. It starts from the guided search's frontiers,
inherits the visited sets, runs on the reduced graph (mapping adjacency
through the contraction overlay), and alternates directions at layer
granularity. All per-direction bindings are hoisted out of the layer
loop: on sparse graphs layers hold only a couple of vertices, so
per-layer setup would otherwise dominate. A query that started on the
array state hands off to :func:`repro.graph.kernels.bibfs_loop` instead,
and one that started on dicts finishes here, whatever was frozen since.

Three dict BiBFS loops exist, each for a reason measured on a 2-vCPU
Xeon host:

* :func:`bibfs_is_reachable` is the plain competitor (Tab. III's
  denominator) and the kernel-free verdict probe. Run on a fresh
  :class:`~repro.core.state.SearchContext`, :func:`frontier_bibfs` was
  1.25-1.71x slower per query on the EN/FL/WT/DL analogs and a 10k
  preferential-attachment graph: a ``find`` lookup per edge and an
  ``explored`` update per layer, plus 3.7-5 us to build the context.
* :func:`frontier_bibfs` is Alg. 5: a contracted hand-off needs ``find``.
* ``repro.service.engine._bounded_bibfs`` is the degraded rung. It
  expands the smaller frontier and checks its edge budget per vertex.
  With :func:`bibfs_is_reachable` under an ``edge_ceiling`` of 2048 in
  its place, five 20k-vertex graphs with 90 % upward edges gave 295-299
  of 300 confident answers instead of 300, and overran the ceiling by up
  to 855 edges.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.core.state import SearchContext
from repro.core.stats import QueryStats
from repro.graph import kernels
from repro.graph.budget import Budget
from repro.graph.digraph import DynamicDiGraph


def bibfs_is_reachable(
    graph: DynamicDiGraph,
    source: int,
    target: int,
    stats: Optional[QueryStats] = None,
    use_kernels: bool = True,
    budget: Optional[Budget] = None,
) -> bool:
    """Bidirectional BFS from ``source``/``target``, alternating at layer
    granularity exactly as Alg. 5 does from singleton frontiers.

    When a current-version CSR snapshot is already frozen (and
    ``use_kernels``), the search runs on the vectorized kernel instead of
    dict adjacency; answers are identical, updates still touch nothing but
    the adjacency lists, and a graph mid-churn (stale or absent snapshot)
    silently takes the dict path. ``use_kernels=False`` pins the
    pure-Python loop: the serving breaker's verdict probe and the e2e
    oracle need a BiBFS that shares no kernel with what they check.

    ``budget`` is checkpointed once per layer; a raise abandons the
    search on either path, and nothing of its state is handed on.
    """
    if stats is None:
        stats = QueryStats()
    if source == target:
        stats.result = True
        return True
    if source not in graph or target not in graph:
        stats.result = False
        return False
    if use_kernels:
        snapshot = graph.csr(build=False)
        if snapshot is not None:
            met, accesses = kernels.csr_bibfs(
                snapshot, source, target, budget=budget
            )
            stats.bibfs_edge_accesses += accesses
            stats.used_kernel = True
            stats.result = met
            return met
    visited_f: Set[int] = {source}
    visited_r: Set[int] = {target}
    frontier_f: List[int] = [source]
    frontier_r: List[int] = [target]
    base = stats.bibfs_edge_accesses
    charged = 0
    # An exhausted frontier is a proof of the negative: its visited set is
    # then the complete closure of one endpoint and contains no vertex of
    # the other side, so the surviving direction can never meet it.
    while frontier_f and frontier_r:
        if budget is not None:
            total = stats.bibfs_edge_accesses - base
            delta = total - charged
            charged = total
            budget.checkpoint(delta)
        met, frontier_f = _expand(
            graph, frontier_f, visited_f, visited_r, True, stats
        )
        if met:
            _charge_rest(budget, stats.bibfs_edge_accesses - base - charged)
            stats.result = True
            return True
        if not frontier_f:
            break
        met, frontier_r = _expand(
            graph, frontier_r, visited_r, visited_f, False, stats
        )
        if met:
            _charge_rest(budget, stats.bibfs_edge_accesses - base - charged)
            stats.result = True
            return True
    _charge_rest(budget, stats.bibfs_edge_accesses - base - charged)
    stats.result = False
    return False


def _charge_rest(budget: Optional[Budget], delta: int) -> None:
    if budget is not None and delta:
        budget.charge(delta)


def _expand(
    graph: DynamicDiGraph,
    layer: List[int],
    own: Set[int],
    other: Set[int],
    forward: bool,
    stats: QueryStats,
) -> Tuple[bool, List[int]]:
    adj = graph.adjacency(forward)
    next_layer: List[int] = []
    accesses = 0
    for u in layer:
        for w in adj[u]:
            accesses += 1
            if w in own:
                continue
            if w in other:
                stats.bibfs_edge_accesses += accesses
                return True, next_layer
            own.add(w)
            next_layer.append(w)
    stats.bibfs_edge_accesses += accesses
    return False, next_layer


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
