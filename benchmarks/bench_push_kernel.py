"""Extension bench — array-state push drains vs the dict twin
(ext_push_kernel).

Three measurements on the 50k-vertex scale-free workload shared with
``bench_kernels``:

* **Drain throughput** — one full ``guided_search`` /
  ``array_guided_search`` pass per query at three threshold rungs. The
  shallow rung (``epsilon_pre``) is fixed-overhead bound — sweeps touch a
  handful of vertices, so numpy dispatch costs as much as it saves. The
  deep rungs are where the sweeps pay; the deepest must clear 2x.
* **End-to-end IFCA** — full queries (guided rounds + contraction +
  Alg. 5 hand-off) on the array state vs all on the dict twins
  (``IFCAParams.use_kernels``), answers checked query by query against
  the dict BiBFS reference (must be identical). Reported at a deep
  forced-switch round and under the default cost model.
* **Lambda recalibration** — the Sec. V-D4 ratio measured on the dict
  path and on the kernel path. The kernel's cheaper per-edge push time
  lowers lambda, which is exactly what shifts the Alg. 6 switch point
  toward the guided phase.
"""

import time


from repro.baselines.bibfs import bibfs_is_reachable
from repro.core.array_search import ArraySearchContext, array_guided_search
from repro.core.guided import guided_search
from repro.core.ifca import IFCA
from repro.core.params import IFCAParams
from repro.core.state import SearchContext
from repro.core.stats import QueryStats
from repro.datasets.scale_free import preferential_attachment_graph
from repro.experiments.lambda_calibration import calibrate_lambda
from repro.workloads.queries import generate_queries

from benchmarks.conftest import once

NUM_VERTICES = 50_000
OUT_DEGREE = 12
RECIPROCAL = 0.08
NUM_QUERIES = 40
REPETITIONS = 2  # best-of, to shed scheduler noise

#: The deepest drain rung must beat the dict twin by at least this much.
DEEP_SPEEDUP_FLOOR = 2.0


def _best_of(func, reps=REPETITIONS):
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_push_kernel_comparison():
    graph = preferential_attachment_graph(
        NUM_VERTICES, OUT_DEGREE, seed=13, reciprocal=RECIPROCAL
    )
    snapshot = graph.csr()
    assert snapshot is not None
    queries = generate_queries(graph, NUM_QUERIES, seed=5)
    params = IFCAParams().resolve(graph)

    rows = []
    rows.extend(_drain_rows(graph, snapshot, params, queries))
    rows.extend(_end_to_end_rows(graph, queries))
    rows.extend(_lambda_rows())
    return rows


def _drain_rows(graph, snapshot, params, queries):
    """Full push drains per query at shrinking thresholds, both twins."""

    def drain_dict(epsilon):
        pushes = 0
        for s, t in queries:
            ctx = SearchContext(graph, params, s, t)
            ctx.epsilon_cur = epsilon
            stats = QueryStats()
            guided_search(ctx, ctx.fwd, stats)
            pushes += stats.push_operations
        return pushes

    def drain_kernel(epsilon):
        pushes = 0
        for s, t in queries:
            ctx = ArraySearchContext(graph, snapshot, params, s, t)
            ctx.epsilon_cur = epsilon
            stats = QueryStats()
            array_guided_search(ctx, ctx.fwd, stats)
            pushes += stats.push_operations
        return pushes

    rows = []
    for label, divisor in (("eps_pre", 1), ("eps_pre/10", 10), ("eps_pre/100", 100)):
        epsilon = params.epsilon_pre / divisor
        dict_s, dict_pushes = _best_of(lambda: drain_dict(epsilon))
        kernel_s, kernel_pushes = _best_of(lambda: drain_kernel(epsilon))
        for path, wall, pushes in (
            ("dict twin", dict_s, dict_pushes),
            ("push kernel", kernel_s, kernel_pushes),
        ):
            rows.append(
                {
                    "measurement": f"drain {label} x{NUM_QUERIES}q",
                    "path": path,
                    "wall_s": wall,
                    "pushes": pushes,
                    "speedup_vs_dict": dict_s / wall if wall else float("inf"),
                }
            )
    return rows


def _end_to_end_rows(graph, queries):
    """Whole IFCA queries, answers pinned to the dict BiBFS reference."""
    reference = [
        bibfs_is_reachable(graph, s, t, use_kernels=False) for s, t in queries
    ]
    rows = []
    for regime, force_switch_round in (
        ("deep guided (fsr=6)", 6),
        ("default cost model", None),
    ):
        dict_s = None
        for use_kernels in (False, True):
            engine = IFCA(
                graph,
                IFCAParams(
                    force_switch_round=force_switch_round,
                    use_kernels=use_kernels,
                ),
            )
            wall, answers = _best_of(
                lambda: [engine.is_reachable(s, t) for s, t in queries]
            )
            if not use_kernels:
                dict_s = wall
            rows.append(
                {
                    "measurement": f"e2e ifca {regime} x{NUM_QUERIES}q",
                    "path": "push kernel" if use_kernels else "dict twin",
                    "wall_s": wall,
                    "speedup_vs_dict": dict_s / wall if wall else float("inf"),
                    "mismatches": sum(
                        a != b for a, b in zip(answers, reference)
                    ),
                }
            )
    return rows


def _lambda_rows():
    """Sec. V-D4 ratio on both substrates (default calibration graph)."""
    rows = []
    for path, push_kernels in (("dict twin", False), ("push kernel", True)):
        value = calibrate_lambda(repetitions=3, push_kernels=push_kernels)
        rows.append(
            {
                "measurement": "lambda calibration",
                "path": path,
                "lambda_ratio": value,
            }
        )
    return rows


def test_ext_push_kernel(benchmark, emit):
    rows = once(benchmark, run_push_kernel_comparison)
    assert all(row.get("mismatches", 0) == 0 for row in rows)
    deep = [
        r
        for r in rows
        if r["measurement"].startswith("drain eps_pre/100")
        and r["path"] == "push kernel"
    ]
    assert deep and deep[0]["speedup_vs_dict"] >= DEEP_SPEEDUP_FLOOR
    lambdas = {
        r["path"]: r["lambda_ratio"]
        for r in rows
        if r["measurement"] == "lambda calibration"
    }
    # The kernel path must not look *more* expensive per edge access than
    # the dict twin to the cost model.
    assert lambdas["push kernel"] <= lambdas["dict twin"] * 1.5
    emit(
        "ext_push_kernel",
        "array-state push drains vs dict twin (drain, end-to-end, lambda)",
        rows,
        parameters={
            "num_vertices": NUM_VERTICES,
            "out_degree": OUT_DEGREE,
            "reciprocal": RECIPROCAL,
            "num_queries": NUM_QUERIES,
            "repetitions": REPETITIONS,
            "deep_speedup_floor": DEEP_SPEEDUP_FLOOR,
            "query_protocol": "uniform random endpoint pairs (Sec. VI)",
        },
        columns=[
            "measurement",
            "path",
            "wall_s",
            "pushes",
            "speedup_vs_dict",
            "mismatches",
            "lambda_ratio",
        ],
    )
