"""Extension bench — bit-parallel batched queries vs scalar serving (ext_batch).

Two measurements on the headline 50k-vertex scale-free graph:

* **Batch A/B throughput** — *searchable* query pairs (pairs on which
  the label rung and the fast-path pruner both abstain, so both arms
  must actually search) served once as a plain loop of
  ``ReachabilityService.query`` on one thread (the ``scalar`` arm: every
  walk is a batch of one and stays on the engine rung) and once as one
  bare ``query_batch(pairs)`` (the ``bitparallel`` arm: the cost model's
  own cutover sweeps it, asserted by ``bit_waves > 0``), on fresh
  services with cold caches, at batch sizes 64 / 256 / 1024. Every
  answer from both arms is checked against the dict BiBFS oracle; the
  recorded rows must show zero mismatches and the acceptance bar
  requires >= 5x throughput at batch size >= 256.
* **Word-occupancy sweep** — the raw ``csr_bit_bibfs`` kernel at 8 / 16
  / 32 / 64 / 256 lanes, showing how per-query cost falls as the 64-bit
  words fill up (and that multi-word sweeps stay cheap per lane).

Rows recorded before the label rung existed were named ``... hard
pairs`` and mined with the fast path alone; labels answer all of those,
so they measured the shared prefilter. The ``... searchable pairs`` rows
replace them.
"""

import time

import numpy as np

from repro.baselines.bibfs import bibfs_is_reachable
from repro.datasets.scale_free import preferential_attachment_graph
from repro.graph.bitsearch import csr_bit_bibfs
from repro.graph.labels import LabelIndex
from repro.service import FastPathPruner, ReachabilityService

from benchmarks.conftest import once

#: Same headline graph as ext_kernels: dense scale-free, giant SCC, mixed
#: positive/negative workload.
NUM_VERTICES = 50_000
OUT_DEGREE = 12
RECIPROCAL = 0.08

BATCH_SIZES = (64, 256, 1024)
REPETITIONS = 2  # best-of, fresh service per rep (caches must stay cold)
SWEEP_LANES = (8, 16, 32, 64, 256)
SWEEP_REPETITIONS = 3


def _searchable_pairs(graph, count, seed=5):
    """Distinct uniform random pairs no index rung answers.

    Pairs the label rung or the fast path answers never reach a search on
    either arm, so including them would just measure the shared
    prefilter. The probes mirror the bench services' default
    configuration (supportive landmarks, 256 label bits), so the selected
    pairs are the ones production serving actually has to search — the
    tail (~0.006% of uniform traffic on this graph) where the scalar path
    is at its most expensive and batching pays the most. Same rule as
    ``benchmarks/e2e/inputs.mine_searchable``: one vectorised label probe
    per chunk, the per-pair fast path only on what it leaves.
    """
    pruner = FastPathPruner(graph, seed=0)
    labels = LabelIndex(graph)
    vertices = np.fromiter(graph.vertices(), dtype=np.int64)
    rng = np.random.default_rng(seed)
    found = {}
    while len(found) < count:
        src = vertices[rng.integers(0, len(vertices), 1 << 19)]
        dst = vertices[rng.integers(0, len(vertices), 1 << 19)]
        abstain = (labels.query_many(src, dst) == 0) & (src != dst)
        for s, t in zip(src[abstain].tolist(), dst[abstain].tolist()):
            if pruner.check(s, t) is None:
                found[(s, t)] = None
                if len(found) == count:
                    break
    return list(found)


def _serve_batch(graph, pairs, arm):
    """Time one cold pass over ``pairs`` on a fresh single-purpose service.

    Default service configuration, matching the ``_searchable_pairs``
    probes (same seed, so both build the same supportive landmarks and
    every index rung abstains on every benched pair for both arms).
    """
    with ReachabilityService(graph.copy(), seed=0) as service:
        service.graph.csr()  # pre-freeze: time the serving, not the freeze
        start = time.perf_counter()
        if arm == "scalar":
            outcomes = [service.query(s, t) for s, t in pairs]
        else:
            outcomes = service.query_batch(pairs)
        wall_s = time.perf_counter() - start
        counters = dict(service.stats()["counters"])
    # Each arm measured the rung it names.
    assert (counters.get("bit_waves", 0) > 0) == (arm == "bitparallel"), counters
    return wall_s, outcomes, counters


def run_batch_comparison():
    graph = preferential_attachment_graph(
        NUM_VERTICES, OUT_DEGREE, seed=13, reciprocal=RECIPROCAL
    )
    assert graph.csr() is not None

    pool = _searchable_pairs(graph, sum(BATCH_SIZES))
    oracle = {
        (s, t): bibfs_is_reachable(graph, s, t, use_kernels=False)
        for (s, t) in pool
    }

    rows, offset = [], 0
    for batch_size in BATCH_SIZES:
        pairs = pool[offset:offset + batch_size]
        offset += batch_size
        walls = {}
        for strategy in ("scalar", "bitparallel"):  # the row's arm label
            best, mismatches, counters = float("inf"), 0, {}
            for _ in range(REPETITIONS):
                wall_s, outcomes, counters = _serve_batch(graph, pairs, strategy)
                mismatches += sum(
                    o.answer != oracle[pair] for pair, o in zip(pairs, outcomes)
                )
                best = min(best, wall_s)
            walls[strategy] = best
            rows.append(
                {
                    "measurement": f"batch x{batch_size} searchable pairs",
                    "strategy": strategy,
                    "wall_s": best,
                    "queries_per_s": batch_size / best,
                    "us_per_query": best / batch_size * 1e6,
                    "speedup_vs_scalar": walls["scalar"] / best,
                    "bit_waves": counters.get("bit_waves", 0),
                    "mismatches": mismatches,
                }
            )
    rows.extend(run_occupancy_sweep(graph, pool))
    return rows


def run_occupancy_sweep(graph, pool):
    """Raw kernel cost as lanes fill the 64-bit words."""
    snapshot = graph.csr()
    rows = []
    for lanes in SWEEP_LANES:
        pairs = pool[:lanes]
        best = float("inf")
        for _ in range(SWEEP_REPETITIONS):
            start = time.perf_counter()
            answers, sweep = csr_bit_bibfs(snapshot, pairs)
            best = min(best, time.perf_counter() - start)
        rows.append(
            {
                "measurement": f"kernel sweep x{lanes} searchable lanes",
                "strategy": "bitparallel",
                "wall_s": best,
                "us_per_query": best / lanes * 1e6,
                "word_occupancy": sweep.occupancy,
                "bit_layers": sweep.layers,
                "mismatches": 0,  # answers re-checked by the A/B rows above
            }
        )
    return rows


def test_ext_batch(benchmark, emit):
    rows = once(benchmark, run_batch_comparison)
    assert all(row.get("mismatches", 0) == 0 for row in rows)
    for row in rows:
        batch = row["measurement"]
        if row["strategy"] == "bitparallel" and "batch x" in batch:
            size = int(batch.split("x")[1].split()[0])
            if size >= 256:
                assert row["speedup_vs_scalar"] >= 5.0, row
    emit(
        "ext_batch",
        "one bit-parallel query_batch vs a loop of point queries (searchable pairs)",
        rows,
        parameters={
            "num_vertices": NUM_VERTICES,
            "out_degree": OUT_DEGREE,
            "reciprocal": RECIPROCAL,
            "batch_sizes": list(BATCH_SIZES),
            "repetitions": REPETITIONS,
            "pair_protocol": (
                "uniform random pairs the default-config label rung and "
                "fast-path pruner both abstain on"
            ),
        },
        columns=[
            "measurement",
            "strategy",
            "wall_s",
            "queries_per_s",
            "us_per_query",
            "speedup_vs_scalar",
            "word_occupancy",
            "bit_waves",
            "bit_layers",
            "mismatches",
        ],
    )
