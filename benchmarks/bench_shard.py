"""Extension bench — sharded multi-process serving vs single-process (ext_shard).

Measurements on the headline 50k-vertex scale-free graph, hard-pair
workload (pairs the fast-path pruner abstains on, exactly as ext_batch):

* **Sharded A/B throughput** — ``query_batch(pairs)`` through a
  ``shards=K`` fleet vs the single-process path (``shards=0``, where the
  cutover sweeps the survivors; each arm asserts its rung ran), fresh service per repetition, fleet deploy and pruner
  warm-up paid by an untimed warm-up batch. Both arms walk the same
  index rungs (fast path, cache) first; the shard rung then answers
  most survivors from the shard plan's O(1) summaries
  (SCC/class/quotient/degree-liveness rules) and contains the rest in
  shard-local waves over CSRs a fraction of the full graph's size,
  where the single-process arm sweeps full-graph waves. Every answer is
  checked against the dict BiBFS oracle; the in-test bar is that
  sharding wins by >= 1.2x at K=4, batch 1024, with zero mismatches.
  The committed rows predate the one-ladder walk: they were taken while
  the fleet was routed *ahead of* the per-pair prefilter and skipped it,
  so ``speedup_vs_single`` reads lower now that both arms pay the index
  rungs (ROADMAP item 3 owns the re-baseline).
* **Worker-kill resilience** — one shard worker SIGKILLed mid-session;
  the next batch must still answer every pair exactly (unroutable pairs
  fall through to the local wave/engine rungs) instead of wedging.

A point ``query()`` is a width-1 ``query_batch`` (one ladder walk at
every width), so it has no leg of its own.
"""

import os
import time


from repro.baselines.bibfs import bibfs_is_reachable
from repro.datasets.scale_free import preferential_attachment_graph
from repro.service import FastPathPruner, ReachabilityService
from repro.workloads.queries import generate_queries

from benchmarks.bench_batch import NUM_VERTICES, OUT_DEGREE, RECIPROCAL
from benchmarks.conftest import once

WARMUP = 64
BATCH_SIZES = (1024, 4096)
#: Shard counts per batch size; 0 is the single-process baseline. The
#: larger batch only contrasts the acceptance configuration against the
#: baseline (each sharded repetition pays a full fleet deploy).
SHARD_MATRIX = {1024: (0, 2, 4, 8), 4096: (0, 4)}
REPETITIONS = 3  # best-of, fresh service per rep (caches must stay cold)

#: Rule verdicts the router answers without any worker round trip.
RULE_COUNTERS = (
    "route_scc",
    "route_class",
    "route_class-neg",
    "route_quotient",
    "route_deg",
)


def _hard_pairs(graph, count, seed=5):
    """Uniform random pairs the fast-path pruner abstains on.

    Pairs the pruner answers in O(1) never reach a search on either
    strategy, so including them would just measure the shared prefilter.
    The probe mirrors the bench services' default configuration
    (supportive landmarks included), so the selected pairs are the ones
    production serving actually has to search — the skewed tail (~0.6%
    of uniform traffic on this graph) where the scalar path is at its
    most expensive and batching pays the most.

    (Moved here unchanged from ``bench_batch`` when that bench switched
    to pairs the label rung abstains on as well; this record's rows keep
    their protocol until ROADMAP item 3 settles them.)
    """
    probe = FastPathPruner(graph, seed=0)
    pairs, chunk_seed = [], seed
    while len(pairs) < count:
        for s, t in generate_queries(graph, 2 * count, seed=chunk_seed):
            if s != t and probe.check(s, t) is None:
                pairs.append((s, t))
                if len(pairs) == count:
                    break
        chunk_seed += 1
    return pairs


def _serve_sharded(graph, warmup, pairs, shards):
    """Time one batch on a fresh service after an untimed warm-up batch.

    The warm-up batch pays the one-time costs both paths carry outside
    steady state — the pruner's first-batch adaptation and, with
    ``shards``, the fleet deploy (partition, shared-memory publish,
    worker spawn) — so the timed batch measures serving, not setup.
    ``warm_fleet`` covers the one cold cost the warm-up batch cannot
    reach: hard pairs in the warm-up slice mostly die on the rule
    ladder, so without it the first *timed* wave pays every worker's
    first-touch page faults and kernel setup. Labels are pinned off on
    both arms — this leg measures sharding against the single-process
    engine under one config (``bench_labels`` owns the DL/BL tier), and
    the label screen would otherwise absorb most of the hard pool
    before either path under test runs.
    """
    with ReachabilityService(
        graph.copy(), shards=shards, seed=0, use_labels=False,
    ) as service:
        service.graph.csr()  # pre-freeze: time the serving, not the freeze
        service.query_batch(warmup)
        if service.router is not None:
            service.router.warm_fleet()
        start = time.perf_counter()
        outcomes = service.query_batch(pairs)
        wall_s = time.perf_counter() - start
        counters = dict(service.stats()["counters"])
        router = service.router
        route = dict(router.counters) if router is not None else {}
    # Each arm measured the rung it names.
    ran = "shard_resolved" if shards >= 2 else "bit_waves"
    assert counters.get(ran, 0) > 0, counters
    return wall_s, outcomes, counters, route


def run_shard_comparison():
    graph = preferential_attachment_graph(
        NUM_VERTICES, OUT_DEGREE, seed=13, reciprocal=RECIPROCAL
    )
    assert graph.csr() is not None

    # The comparison rows slice the exact pool the committed baseline
    # was measured on (``_hard_pairs`` output depends on the requested
    # count), so the trajectory gate compares like pairs with like.
    pool = _hard_pairs(graph, WARMUP + sum(BATCH_SIZES))
    warmup, offset = pool[:WARMUP], WARMUP
    oracle = {
        (s, t): bibfs_is_reachable(graph, s, t, use_kernels=False)
        for (s, t) in pool
    }

    rows = []
    for batch_size in BATCH_SIZES:
        pairs = pool[offset:offset + batch_size]
        offset += batch_size
        single_wall = None
        for shards in SHARD_MATRIX[batch_size]:
            best, mismatches = float("inf"), 0
            counters, route = {}, {}
            for _ in range(REPETITIONS):
                wall_s, outcomes, counters, route = _serve_sharded(
                    graph, warmup, pairs, shards
                )
                mismatches += sum(
                    o.answer != oracle[pair]
                    for pair, o in zip(pairs, outcomes)
                )
                best = min(best, wall_s)
            if shards == 0:
                single_wall = best
            rows.append(
                {
                    "measurement": f"batch x{batch_size} hard pairs",
                    "shards": shards,
                    "wall_s": best,
                    "queries_per_s": batch_size / best,
                    "speedup_vs_single": single_wall / best,
                    "route_rules": sum(
                        route.get(c, 0) for c in RULE_COUNTERS
                    ),
                    "route_wave_pairs": route.get("route_wave_pairs", 0),
                    "route_cross_pairs": route.get("route_cross_pairs", 0),
                    "shard_unresolved": counters.get("shard_unresolved", 0),
                    "mismatches": mismatches,
                }
            )
    rows.append(run_kill_leg(graph, warmup, pool[WARMUP:WARMUP + 1024], oracle))
    return rows


def run_kill_leg(graph, warmup, pairs, oracle):
    """SIGKILL one worker, then serve a batch: degrade, never wedge.

    Respawn is pinned off so the leg measures the *degraded* fleet
    (self-heal is chaos-net's and the test suite's job): the first post
    to the dead worker convicts it, its jobs requeue onto survivors —
    every worker attaches every shard, so a dead worker no longer takes
    a shard's routability with it — and whatever still misses falls to
    the engine's local wave/engine rungs. The batch completes exactly;
    availability costs throughput, never correctness. Labels stay on
    (the serving default): the label rung answers most of the pool and
    the degraded fleet gets what it leaves.
    """
    with ReachabilityService(
        graph.copy(), shards=4, seed=0, shard_respawn=False
    ) as service:
        service.graph.csr()
        service.query_batch(warmup)
        router = service.router
        assert router is not None and router.healthy
        router._workers[0].process.kill()
        router._workers[0].process.join(5.0)
        start = time.perf_counter()
        outcomes = service.query_batch(pairs)
        wall_s = time.perf_counter() - start
        counters = dict(service.stats()["counters"])
        degraded = not router.healthy
    mismatches = sum(
        o.answer != oracle[pair] for pair, o in zip(pairs, outcomes)
    )
    assert len(outcomes) == len(pairs)
    return {
        "measurement": "worker-kill resilience x1024",
        "shards": 4,
        "wall_s": wall_s,
        "queries_per_s": len(pairs) / wall_s,
        "shard_unresolved": counters.get("shard_unresolved", 0),
        "fleet_degraded": degraded,
        "mismatches": mismatches,
    }


def test_ext_shard(benchmark, emit):
    rows = once(benchmark, run_shard_comparison)
    assert all(row.get("mismatches", 0) == 0 for row in rows)
    kill = next(r for r in rows if "kill" in r["measurement"])
    assert kill["fleet_degraded"], "dead worker must be noticed, not hidden"
    for row in rows:
        # The absolute wall ratio at x1024 swings with host load on a
        # shared runner (the single arm alone has varied ~2x between
        # otherwise identical sessions), so the in-test bar only asserts
        # that sharding *wins*; session-over-session drift is owned by
        # check_trajectory's like-for-like 20% gate.
        if row.get("shards") == 4 and row["measurement"].startswith("batch x1024"):
            assert row["speedup_vs_single"] >= 1.2, row
    emit(
        "ext_shard",
        "sharded multi-process serving vs single-process query_batch",
        rows,
        parameters={
            "num_vertices": NUM_VERTICES,
            "out_degree": OUT_DEGREE,
            "reciprocal": RECIPROCAL,
            "batch_sizes": list(BATCH_SIZES),
            "shard_matrix": {str(k): list(v) for k, v in SHARD_MATRIX.items()},
            "repetitions": REPETITIONS,
            "cpu_count": os.cpu_count(),
            "pair_protocol": (
                "uniform random pairs the default-config fast-path "
                "pruner abstains on (as ext_batch)"
            ),
        },
        columns=[
            "measurement",
            "shards",
            "wall_s",
            "queries_per_s",
            "speedup_vs_single",
            "route_rules",
            "route_wave_pairs",
            "route_cross_pairs",
            "shard_unresolved",
            "fleet_degraded",
            "mismatches",
        ],
    )
