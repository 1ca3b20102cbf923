"""Cost-model effectiveness against an oracle — Tab. IV (Sec. VI-B).

The oracle "always selects the switching point that leads to the shortest
processing time for each query, implemented by trying every possible
switching point of each query and averaging the shortest query time".
``force_switch_round`` makes every candidate switching point expressible:
round 0 = switch immediately (BiBFS from the endpoints), round k = switch
after k guided/contract rounds, and ``use_cost_model=False`` = never switch
(Contract). IFCA's cost model should land near the oracle everywhere,
with Contract closer on community graphs and BiBFS closer on the rest.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.ifca import IFCA
from repro.core.params import IFCAParams
from repro.experiments.runner import time_queries_ms
from repro.graph.digraph import DynamicDiGraph
from repro.workloads.queries import generate_queries

Query = Tuple[int, int]


def oracle_query_time_ms(
    graph: DynamicDiGraph,
    queries: Sequence[Query],
    max_switch_round: int = 6,
) -> float:
    """Per-query minimum over all switching points, averaged (ms).

    Each candidate engine runs the whole workload in its own tight loop
    (after a warmup pass) and the minimum is taken element-wise —
    interleaving candidates per query would systematically inflate every
    measurement through cache churn on microsecond-scale queries.
    """
    if not queries:
        return 0.0
    base = IFCAParams()
    candidates = [
        IFCA(graph, base.with_overrides(force_switch_round=k))
        for k in range(max_switch_round + 1)
    ]
    candidates.append(IFCA(graph, base.with_overrides(use_cost_model=False)))
    best = [float("inf")] * len(queries)
    for engine in candidates:
        for s, t in queries[: min(len(queries), 5)]:
            engine.is_reachable(s, t)  # warmup
        for i, (s, t) in enumerate(queries):
            start = time.perf_counter()
            engine.is_reachable(s, t)
            elapsed = time.perf_counter() - start
            if elapsed < best[i]:
                best[i] = elapsed
    return sum(best) / len(queries) * 1000.0


def run_cost_model_vs_oracle(
    graph: DynamicDiGraph,
    num_queries: int = 60,
    seed: int = 0,
    max_switch_round: int = 6,
) -> Dict[str, Any]:
    """One Tab. IV row: Oracle / IFCA / Contract / BiBFS times (ms)."""
    queries = generate_queries(graph, num_queries, seed=seed)
    base = IFCAParams()
    ifca = IFCA(graph, base)
    contract = IFCA(graph, base.with_overrides(use_cost_model=False))
    bibfs = IFCA(graph, base.with_overrides(force_switch_round=0))
    return {
        "oracle_ms": oracle_query_time_ms(graph, queries, max_switch_round),
        "ifca_ms": time_queries_ms(ifca.is_reachable, queries),
        "contract_ms": time_queries_ms(contract.is_reachable, queries),
        "bibfs_ms": time_queries_ms(bibfs.is_reachable, queries),
    }
