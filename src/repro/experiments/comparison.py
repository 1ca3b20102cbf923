"""State-of-the-art comparison — Fig. 6 and Tab. III (Sec. VI-C).

Replays each dataset analog's update/query workload through every method
(IFCA, BiBFS, ARROW, TOL, IP, DAGGER) and reports average update time and
average query time split by query sign, exactly the quantities of the
stacked bars in Fig. 6; Tab. III is derived from the IFCA and BiBFS rows.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.baselines.arrow import ArrowMethod, tune_arrow_accuracy
from repro.baselines.base import ReachabilityMethod
from repro.baselines.bibfs import BiBFSMethod
from repro.baselines.dagger import DaggerMethod
from repro.baselines.ip import IPMethod
from repro.baselines.tol import TOLMethod
from repro.core.ifca import IFCAMethod
from repro.datasets.registry import load_analog
from repro.dynamic.driver import DynamicWorkload, ReplayResult, replay
from repro.graph.digraph import DynamicDiGraph

MethodFactory = Callable[[DynamicDiGraph], ReachabilityMethod]

#: The paper's Fig. 6 lineup. DBL is excluded (no deletions), as in the paper.
DEFAULT_METHODS: Dict[str, MethodFactory] = {
    "IFCA": lambda g: IFCAMethod(g),
    "BiBFS": lambda g: BiBFSMethod(g),
    "ARROW": lambda g: ArrowMethod(g, c_num_walks=0.05),
    "TOL": lambda g: TOLMethod(g),
    "IP": lambda g: IPMethod(g),
    "DAGGER": lambda g: DaggerMethod(g),
}


def run_comparison_on_analog(
    code: str,
    methods: Optional[Dict[str, MethodFactory]] = None,
    num_batches: int = 5,
    queries_per_batch: int = 30,
    seed: int = 0,
    max_updates: Optional[int] = 400,
) -> List[Dict[str, Any]]:
    """Fig. 6 rows for one dataset analog.

    ``max_updates`` truncates the stream (index-based updates are costly in
    pure Python); truncation keeps the earliest events so the replay still
    interleaves inserts and deletes.
    """
    analog, initial, stream = load_analog(code, seed=seed)
    if max_updates is not None and len(stream) > max_updates:
        stream = type(stream)(stream.events[:max_updates])
    workload = DynamicWorkload(
        initial=initial,
        stream=stream,
        num_batches=num_batches,
        queries_per_batch=queries_per_batch,
        seed=seed,
    )
    if methods is None:
        methods = dict(DEFAULT_METHODS)
        methods["ARROW"] = _tuned_arrow_factory(initial, seed)
    return run_comparison(workload, methods, dataset=code, category=analog.category)


def _tuned_arrow_factory(initial: DynamicDiGraph, seed: int) -> MethodFactory:
    """The paper's protocol for ARROW: enlarge ``c_numWalks`` (start 0.01,
    step 0.01) until accuracy exceeds 95% on a sample of the workload, then
    use the tuned constant for the replay."""
    from repro.workloads.queries import generate_queries, label_queries

    batch = label_queries(initial, generate_queries(initial, 30, seed=seed + 13))
    try:
        tuned, _ = tune_arrow_accuracy(
            initial,
            batch.queries,
            batch.ground_truth,
            target_accuracy=0.95,
            max_steps=100,
            seed=seed,
        )
        c_num_walks = tuned.c_num_walks
    except RuntimeError:
        c_num_walks = 1.0  # cap: best effort when 95% is unattainable
    return lambda g: ArrowMethod(g, c_num_walks=c_num_walks, seed=seed)


def run_comparison(
    workload: DynamicWorkload,
    methods: Optional[Dict[str, MethodFactory]] = None,
    dataset: str = "",
    category: str = "",
) -> List[Dict[str, Any]]:
    """Fig. 6 rows for one prepared workload."""
    if methods is None:
        methods = DEFAULT_METHODS
    rows: List[Dict[str, Any]] = []
    for name, factory in methods.items():
        result = replay(factory, workload, method_name=name)
        rows.append(_result_row(result, dataset, category))
    return rows


def _result_row(result: ReplayResult, dataset: str, category: str) -> Dict[str, Any]:
    return {
        "dataset": dataset,
        "category": category,
        "method": result.method_name,
        "avg_update_ms": result.avg_update_time * 1000.0,
        "avg_query_ms": result.avg_query_time * 1000.0,
        "avg_pos_query_ms": result.avg_positive_query_time * 1000.0,
        "avg_neg_query_ms": result.avg_negative_query_time * 1000.0,
        "accuracy": result.accuracy,
        "num_queries": result.num_queries,
        "num_updates": result.num_updates,
    }


def derive_table3(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Tab. III from Fig. 6 rows: IFCA vs BiBFS speedups per dataset."""
    by_dataset: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], {})[row["method"]] = row
    table: List[Dict[str, Any]] = []
    for dataset, methods in by_dataset.items():
        if "IFCA" not in methods or "BiBFS" not in methods:
            continue
        ifca, bibfs = methods["IFCA"], methods["BiBFS"]
        table.append(
            {
                "dataset": dataset,
                "bibfs_pos_ms": bibfs["avg_pos_query_ms"],
                "ifca_pos_ms": ifca["avg_pos_query_ms"],
                "pos_speedup": _ratio(
                    bibfs["avg_pos_query_ms"], ifca["avg_pos_query_ms"]
                ),
                "bibfs_neg_ms": bibfs["avg_neg_query_ms"],
                "ifca_neg_ms": ifca["avg_neg_query_ms"],
                "neg_speedup": _ratio(
                    bibfs["avg_neg_query_ms"], ifca["avg_neg_query_ms"]
                ),
                "overall_speedup": _ratio(
                    bibfs["avg_query_ms"], ifca["avg_query_ms"]
                ),
            }
        )
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else float("nan")
