"""Effectiveness of the optimizations — Fig. 7 and Tab. IV (Sec. VI-B).

Fig. 7 relates precision to average query time for the ablation ladder:

* ``Base@90%`` / ``Base@100%`` — Alg. 1 with epsilon lowered until the
  workload accuracy reaches 90% / 100%;
* ``Contract`` — IFCA without cost-based strategy selection (exact);
* ``IFCA`` — the full method (exact).

Tab. IV adds the oracle comparison, implemented in
:mod:`repro.experiments.oracle`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.baseline import push_reachability, tune_epsilon_for_precision
from repro.core.ifca import IFCA
from repro.core.params import IFCAParams
from repro.experiments.runner import time_queries_ms
from repro.graph.digraph import DynamicDiGraph
from repro.workloads.precision import accuracy
from repro.workloads.queries import QueryBatch, generate_queries, label_queries


def run_optimization_ladder(
    graph: DynamicDiGraph,
    num_queries: int = 100,
    seed: int = 0,
    alpha: float = 0.1,
    use_kernels: bool = False,
) -> List[Dict[str, Any]]:
    """Fig. 7 rows: method, achieved precision, avg query time (ms).

    ``use_kernels`` freezes the graph's CSR snapshot up front so the
    Contract/IFCA rows run on the vectorized substrate; the baseline push
    rows always use the scalar path the paper's Alg. 1 describes.
    """
    if use_kernels:
        graph.csr()
    batch = label_queries(graph, generate_queries(graph, num_queries, seed=seed))
    rows: List[Dict[str, Any]] = []
    rows.extend(_baseline_rows(graph, batch, alpha))
    params = IFCAParams()
    for name, variant in (
        ("Contract", params.with_overrides(use_cost_model=False)),
        ("IFCA", params),
    ):
        engine = IFCA(graph, variant)
        avg_ms = time_queries_ms(engine.is_reachable, batch.queries)
        answers = [engine.is_reachable(s, t) for s, t in batch.queries]
        rows.append(
            {
                "method": name,
                "precision": accuracy(answers, batch.ground_truth),
                "avg_query_time_ms": avg_ms,
            }
        )
    return rows


def _baseline_rows(
    graph: DynamicDiGraph, batch: QueryBatch, alpha: float
) -> List[Dict[str, Any]]:
    rows = []
    for target in (0.90, 1.00):
        epsilon, achieved = tune_epsilon_for_precision(
            graph,
            batch.queries,
            batch.ground_truth,
            target_precision=target,
            alpha=alpha,
        )
        avg_ms = time_queries_ms(
            lambda s, t: push_reachability(graph, s, t, alpha, epsilon),
            batch.queries,
        )
        rows.append(
            {
                "method": f"Base@{int(target * 100)}%",
                "precision": achieved,
                "avg_query_time_ms": avg_ms,
                "epsilon": epsilon,
            }
        )
    return rows
