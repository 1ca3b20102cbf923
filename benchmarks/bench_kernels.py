"""Extension bench — vectorized CSR kernels vs dict adjacency (ext_kernels).

Three measurements on scale-free graphs:

* **BiBFS wall-clock** — the paper-protocol query workload (uniform random
  endpoint pairs) on a 50k-vertex preferential-attachment graph, answered
  once on the mutable dict adjacency and once on the frozen CSR snapshot
  through :mod:`repro.graph.kernels`. Identical answers are asserted
  query by query; only wall-clock may differ.
* **Freeze cost & amortization** — how long ``CSRSnapshot.freeze`` takes
  on 100k vertices, and how many queries of the measured workload pay off
  one freeze of the 50k benchmark graph (the serving engine's per-epoch
  amortization decision in ``service.engine``).
* **Equivalence harness** — full IFCA (guided rounds + Alg. 5 hand-off)
  with kernels on vs off, under both push orders, counting answer
  mismatches against the dict BiBFS reference. The recorded rows must
  show zero.
"""

import time


from repro.baselines.bibfs import bibfs_is_reachable
from repro.core.ifca import IFCA
from repro.core.params import ORDER_GREEDY, ORDER_LIFO, IFCAParams
from repro.datasets.scale_free import preferential_attachment_graph
from repro.workloads.queries import generate_queries

from benchmarks.conftest import once

#: The headline workload: 50k-vertex scale-free graph, dense enough that
#: BiBFS layers hold thousands of vertices (where whole-frontier numpy
#: expansion pays), with enough reciprocity for a giant SCC so the
#: workload mixes positives and exhausting negatives.
NUM_VERTICES = 50_000
OUT_DEGREE = 12
RECIPROCAL = 0.08
NUM_QUERIES = 200
REPETITIONS = 3  # best-of, to shed scheduler noise

FREEZE_VERTICES = 100_000
FREEZE_OUT_DEGREE = 4

HARNESS_VERTICES = 2_000
HARNESS_QUERIES = 100


def _best_of(func, reps=REPETITIONS):
    best, result = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_kernel_comparison():
    graph = preferential_attachment_graph(
        NUM_VERTICES, OUT_DEGREE, seed=13, reciprocal=RECIPROCAL
    )
    queries = generate_queries(graph, NUM_QUERIES, seed=5)

    dict_s, dict_answers = _best_of(
        lambda: [
            bibfs_is_reachable(graph, s, t, use_kernels=False) for s, t in queries
        ]
    )

    freeze_start = time.perf_counter()
    assert graph.csr() is not None
    freeze_50k_s = time.perf_counter() - freeze_start

    kernel_s, kernel_answers = _best_of(
        lambda: [
            bibfs_is_reachable(graph, s, t, use_kernels=True) for s, t in queries
        ]
    )
    mismatches = sum(a != b for a, b in zip(dict_answers, kernel_answers))
    speedup = dict_s / kernel_s if kernel_s else float("inf")

    # Freeze micro-bench on 100k vertices (satellite: vectorized freeze).
    big = preferential_attachment_graph(
        FREEZE_VERTICES, FREEZE_OUT_DEGREE, seed=7, reciprocal=0.1
    )
    freeze_100k_s, snapshot = _best_of(lambda: _refreeze(big))
    edges_per_s = snapshot.num_edges / freeze_100k_s if freeze_100k_s else 0.0

    # Break-even: queries of this workload needed to pay for one freeze.
    per_query_saving_s = (dict_s - kernel_s) / NUM_QUERIES
    break_even = (
        freeze_50k_s / per_query_saving_s if per_query_saving_s > 0 else float("inf")
    )

    rows = [
        {
            "measurement": f"bibfs pa{NUM_VERTICES // 1000}k x{NUM_QUERIES}q",
            "path": "dict adjacency",
            "wall_s": dict_s,
            "avg_query_ms": dict_s / NUM_QUERIES * 1000,
            "speedup_vs_dict": 1.0,
            "mismatches": 0,
        },
        {
            "measurement": f"bibfs pa{NUM_VERTICES // 1000}k x{NUM_QUERIES}q",
            "path": "csr kernel",
            "wall_s": kernel_s,
            "avg_query_ms": kernel_s / NUM_QUERIES * 1000,
            "speedup_vs_dict": speedup,
            "mismatches": mismatches,
        },
        {
            "measurement": f"freeze pa{FREEZE_VERTICES // 1000}k "
            f"(m={snapshot.num_edges})",
            "path": "vectorized freeze",
            "wall_s": freeze_100k_s,
            "edges_per_s": edges_per_s,
        },
        {
            "measurement": "freeze amortization (50k workload)",
            "path": "csr kernel",
            "wall_s": freeze_50k_s,
            "break_even_queries": break_even,
        },
    ]
    rows.extend(run_equivalence_harness())
    return rows


def _refreeze(graph):
    """Force a fresh freeze regardless of the version-keyed cache."""
    from repro.graph.snapshot import CSRSnapshot

    return CSRSnapshot.freeze(graph)


def run_equivalence_harness():
    """IFCA kernels on/off x push order, mismatches vs dict BiBFS."""
    graph = preferential_attachment_graph(
        HARNESS_VERTICES, 4, seed=31, reciprocal=0.15
    )
    queries = generate_queries(graph, HARNESS_QUERIES, seed=41)
    reference = [
        bibfs_is_reachable(graph, s, t, use_kernels=False) for s, t in queries
    ]
    rows = []
    for push_order in (ORDER_LIFO, ORDER_GREEDY):
        for use_kernels in (False, True):
            graph.csr()  # current-version snapshot available when enabled
            engine = IFCA(
                graph,
                params=IFCAParams(
                    force_switch_round=2,
                    push_order=push_order,
                    use_kernels=use_kernels,
                ),
            )
            answers = [engine.is_reachable(s, t) for s, t in queries]
            rows.append(
                {
                    "measurement": f"equivalence {push_order} "
                    f"({HARNESS_QUERIES}q pa{HARNESS_VERTICES})",
                    "path": "csr kernel" if use_kernels else "dict adjacency",
                    "mismatches": sum(
                        a != b for a, b in zip(answers, reference)
                    ),
                }
            )
    return rows


def test_ext_kernels(benchmark, emit):
    rows = once(benchmark, run_kernel_comparison)
    assert all(row.get("mismatches", 0) == 0 for row in rows)
    kernel_row = rows[1]
    assert kernel_row["speedup_vs_dict"] > 1.0
    emit(
        "ext_kernels",
        "vectorized CSR kernels vs dict adjacency (BiBFS, freeze, equivalence)",
        rows,
        parameters={
            "num_vertices": NUM_VERTICES,
            "out_degree": OUT_DEGREE,
            "reciprocal": RECIPROCAL,
            "num_queries": NUM_QUERIES,
            "repetitions": REPETITIONS,
            "freeze_vertices": FREEZE_VERTICES,
            "query_protocol": "uniform random endpoint pairs (Sec. VI)",
        },
        columns=[
            "measurement",
            "path",
            "wall_s",
            "avg_query_ms",
            "speedup_vs_dict",
            "mismatches",
            "edges_per_s",
            "break_even_queries",
        ],
    )
