"""Plain bidirectional BFS — the paper's strongest simple competitor.

"Interestingly, we find that BiBFS is actually more efficient than
state-of-the-art reachability algorithms on dynamic graphs when
considering both query and update time" (Sec. I). Index-free: updates
touch only the adjacency lists.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.baselines.base import ReachabilityMethod
from repro.core.budget import Budget
from repro.core.stats import QueryStats
from repro.graph import kernels
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


class BiBFSMethod(ReachabilityMethod):
    """BiBFS behind the uniform competitor interface."""

    name = "BiBFS"
    exact = True
    supports_deletions = True

    def query(self, source: int, target: int) -> bool:
        return bibfs_is_reachable(self.graph, source, target)
