"""Measuring the cost model's ``lambda`` (Sec. V-D4).

"We perform each type of basic operation under the same setting for the
same number of times respectively, calculate their average running time,
and divide the average running time of the probability-guided search by
that of BiBFS to obtain the ratio lambda."

The measurement drives the real code paths: a full guided-search pass and
a full BiBFS pass over the same graph, divided by their own edge-access
counters. In CPython the ratio lands notably above the paper's C++ value
because a push step costs several dict operations against BiBFS's set
probe — exactly the constant the cost model needs to know.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.baselines.bibfs import bibfs_is_reachable
from repro.core.array_search import ArraySearchContext, array_guided_search
from repro.core.guided import guided_search
from repro.core.params import IFCAParams
from repro.core.state import SearchContext
from repro.core.stats import QueryStats
from repro.datasets.sbm import two_block_sbm
from repro.graph.digraph import DynamicDiGraph


def calibrate_lambda(
    graph: Optional[DynamicDiGraph] = None,
    repetitions: int = 5,
    epsilon: float = 1e-6,
    push_kernels: bool = False,
) -> float:
    """Measure the guided-push : BiBFS per-operation time ratio.

    Runs both searches to (near) completion from a fixed vertex pair so
    each performs thousands of basic operations, then divides the per-edge-
    access times. Returns a ratio >= 0.1 (clamped for sanity).

    ``push_kernels`` times the array-state drain instead of the dict twin
    (the graph is frozen first). Both paths report the
    same counter units — one edge access per adjacency entry scanned — so
    the resulting ratios are directly comparable: the kernel's smaller
    lambda is exactly what shifts the Alg. 6 switch point in its favor.
    """
    if graph is None:
        graph = two_block_sbm(400, 8.0, seed=11)
    else:
        graph = graph.copy()
    vertices = list(graph.vertices())
    source = vertices[0]
    # An unreachable sink as the target forces both searches to run to
    # exhaustion, so per-operation times are averaged over full scans.
    target = max(vertices) + 1
    graph.add_edge(target, source)

    params = IFCAParams(
        epsilon_pre=epsilon, epsilon_init=epsilon, use_cost_model=False
    ).resolve(graph)
    if push_kernels:
        graph.csr()

    # Warm caches (adjacency lists, code paths) before timing.
    _time_guided(graph, params, source, target, 1, push_kernels)
    _time_bibfs(graph, source, target, 1)
    push_time, push_ops = _time_guided(
        graph, params, source, target, repetitions, push_kernels
    )
    bfs_time, bfs_ops = _time_bibfs(graph, source, target, repetitions)
    if push_ops == 0 or bfs_ops == 0:
        return 1.0
    per_push = push_time / push_ops
    per_bfs = bfs_time / bfs_ops
    if per_bfs <= 0:
        return 1.0
    return max(per_push / per_bfs, 0.1)


def _time_guided(
    graph: DynamicDiGraph,
    params,
    source: int,
    target: int,
    repetitions: int,
    push_kernels: bool = False,
) -> Tuple[float, int]:
    total_time = 0.0
    total_ops = 0
    for _ in range(repetitions):
        if push_kernels:
            ctx = ArraySearchContext(
                graph, graph.csr(build=False), params, source, target
            )
            ctx.epsilon_cur = params.epsilon_pre
            stats = QueryStats()
            start = time.perf_counter()
            array_guided_search(ctx, ctx.fwd, stats)
        else:
            ctx = SearchContext(graph, params, source, target)
            ctx.epsilon_cur = params.epsilon_pre
            stats = QueryStats()
            start = time.perf_counter()
            guided_search(ctx, ctx.fwd, stats)
        total_time += time.perf_counter() - start
        total_ops += stats.guided_edge_accesses
    return total_time, total_ops


def _time_bibfs(
    graph: DynamicDiGraph, source: int, target: int, repetitions: int
) -> Tuple[float, int]:
    total_time = 0.0
    total_ops = 0
    for _ in range(repetitions):
        stats = QueryStats()
        start = time.perf_counter()
        # Source == target would short-circuit; use a negative-direction
        # pair so the scan runs to exhaustion.
        bibfs_is_reachable(graph, source, target, stats)
        total_time += time.perf_counter() - start
        total_ops += stats.bibfs_edge_accesses
    return total_time, total_ops
