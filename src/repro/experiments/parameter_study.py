"""Parameter study — Figs. 2, 3, 4, 5 (Sec. VI-A).

Four sweeps over IFCA's tunables on a dataset analog's snapshot:

* Fig. 2 — average query time varying ``epsilon_pre``;
* Fig. 3 — average *push* time varying ``1/epsilon_pre`` from sampled
  sources, exposing the turning point where the ``O(1/epsilon)`` bound
  becomes tight;
* Fig. 4 — average query time varying ``alpha``;
* Fig. 5 — average query time over the ``epsilon_init`` x ``step`` grid.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Sequence

from repro.core.ifca import IFCA
from repro.core.params import IFCAParams
from repro.experiments.runner import time_queries_ms
from repro.graph.digraph import DynamicDiGraph
from repro.ppr.common import PushConfig
from repro.ppr.forward_push import forward_push
from repro.workloads.queries import generate_queries


def run_epsilon_pre_sweep(
    graph: DynamicDiGraph,
    epsilon_pre_values: Sequence[float],
    num_queries: int = 100,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Fig. 2: avg query time (ms) per ``epsilon_pre``."""
    queries = generate_queries(graph, num_queries, seed=seed)
    base = IFCAParams()
    rows = []
    for eps in epsilon_pre_values:
        params = base.with_overrides(
            epsilon_pre=eps, epsilon_init=100.0 * eps
        )
        engine = IFCA(graph, params)
        avg_ms = time_queries_ms(engine.is_reachable, queries)
        rows.append({"epsilon_pre": eps, "avg_query_time_ms": avg_ms})
    return rows


def run_push_turning_point(
    graph: DynamicDiGraph,
    inverse_epsilon_values: Sequence[float],
    num_sources: int = 100,
    alpha: float = 0.1,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Fig. 3: avg forward-push time (ms) per ``1/epsilon_pre``.

    The paper samples 1,000 sources per graph; ``num_sources`` scales that
    to the analog size. Past the turning point the time grows linearly in
    ``1/epsilon`` (the bound is tight); before it, sublinearly.
    """
    rng = random.Random(seed)
    candidates = [v for v in graph.vertices() if graph.out_degree(v) > 0]
    if not candidates:
        return []
    sources = [candidates[rng.randrange(len(candidates))] for _ in range(num_sources)]
    rows = []
    for inv_eps in inverse_epsilon_values:
        config = PushConfig(alpha=alpha, epsilon=1.0 / inv_eps)
        start = time.perf_counter()
        accesses = 0
        for source in sources:
            state = forward_push(graph, source, config)
            accesses += state.edge_accesses
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "inverse_epsilon": inv_eps,
                "avg_push_time_ms": elapsed / len(sources) * 1000.0,
                "avg_edge_accesses": accesses / len(sources),
            }
        )
    return rows


def run_alpha_sweep(
    graph: DynamicDiGraph,
    alpha_values: Sequence[float],
    num_queries: int = 100,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Fig. 4: avg query time (ms) per ``alpha``."""
    queries = generate_queries(graph, num_queries, seed=seed)
    base = IFCAParams()
    rows = []
    for alpha in alpha_values:
        engine = IFCA(graph, base.with_overrides(alpha=alpha))
        avg_ms = time_queries_ms(engine.is_reachable, queries)
        rows.append({"alpha": alpha, "avg_query_time_ms": avg_ms})
    return rows


def run_init_step_grid(
    graph: DynamicDiGraph,
    epsilon_init_multipliers: Sequence[float],
    step_values: Sequence[float],
    num_queries: int = 100,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Fig. 5: avg query time (ms) over the epsilon_init x step grid.

    ``epsilon_init = multiplier * epsilon_pre`` with ``epsilon_pre`` at its
    heuristic default for the snapshot (``100/m``).
    """
    queries = generate_queries(graph, num_queries, seed=seed)
    base = IFCAParams()
    epsilon_pre = base.resolve(graph).epsilon_pre
    rows = []
    for multiplier in epsilon_init_multipliers:
        for step in step_values:
            params = base.with_overrides(
                epsilon_pre=epsilon_pre,
                epsilon_init=multiplier * epsilon_pre,
                step=step,
            )
            engine = IFCA(graph, params)
            avg_ms = time_queries_ms(engine.is_reachable, queries)
            rows.append(
                {
                    "epsilon_init_multiplier": multiplier,
                    "step": step,
                    "avg_query_time_ms": avg_ms,
                }
            )
    return rows
