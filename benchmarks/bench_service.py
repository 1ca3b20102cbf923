"""Extension bench — the concurrent query-serving engine.

Replays skewed mixed read/write workloads through
:class:`ReachabilityService`, one walk per query on the driving thread,
on two structurally opposite snapshots:

* a two-block SBM (one giant SCC per block) where the same-SCC
  observation should dominate, and
* a preferential-attachment graph (DAG-like, many singleton SCCs) where
  negative pruning (topological levels, supportive vertices) and the LRU
  cache have to carry the load.

The acceptance bar for the serving layer is that the fast path and cache
together answer at least 30% of queries without invoking the full IFCA
search, while every confident answer stays exact (asserted against the
engine-level invariants in ``tests/test_service.py``).
"""

import os
import tempfile

from repro.datasets.sbm import two_block_sbm
from repro.datasets.scale_free import preferential_attachment_graph
from repro.service import ReachabilityService
from repro.service.driver import replay_workload
from repro.workloads.mixed import generate_mixed_workload, workload_mix

from benchmarks.conftest import once

NUM_OPS = 3000
QUERY_RATIO = 0.9
SKEW = 1.1


def _run_one(name, graph, pair_pool=None, journal=None):
    ops = generate_mixed_workload(
        graph,
        NUM_OPS,
        query_ratio=QUERY_RATIO,
        skew=SKEW,
        pair_pool=pair_pool,
        seed=7,
    )
    queries, inserts, deletes = workload_mix(ops)
    with ReachabilityService(
        graph.copy(),
        num_supportive=4,
        seed=7,
        journal=journal,
    ) as service:
        result = replay_workload(service, ops)
        journal_records = (
            service.journal.records_written if journal is not None else 0
        )
    row = {
        "snapshot": name,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "inserts": inserts,
        "deletes": deletes,
        "journal_records": journal_records,
    }
    row.update(result.summary_row())
    return row


def run_study():
    sbm = two_block_sbm(300, 5.0, seed=11)
    pa = preferential_attachment_graph(1500, 2, seed=11)
    rows = [_run_one("SBM", sbm), _run_one("PA", pa)]
    # Session-like traffic: whole query pairs repeat from a hot pool, so
    # the LRU cache (not just the fast path) carries measurable load.
    rows.append(_run_one("PA/hot-pairs", pa, pair_pool=64))
    # Durability tax: the same run with a write-ahead journal attached —
    # qps relative to the plain PA row is the cost of crash safety.
    with tempfile.TemporaryDirectory() as tmp:
        rows.append(
            _run_one("PA/journal", pa, journal=os.path.join(tmp, "wal.jsonl"))
        )
    return rows


def test_service_throughput(benchmark, emit):
    rows = once(benchmark, run_study)
    emit(
        "ext_service",
        "serving engine: skewed mixed workload, fast-path/cache coverage",
        rows,
        parameters={
            "num_ops": NUM_OPS,
            "query_ratio": QUERY_RATIO,
            "skew": SKEW,
        },
        columns=[
            "snapshot",
            "qps",
            "fastpath_rate",
            "cache_hit_rate",
            "no_search_rate",
            "degraded",
            "journal_records",
        ],
    )
    # The serving layer must answer >= 30% of queries without the full
    # search on every configuration, and all of them with zero degraded
    # answers (no deadline was set).
    for row in rows:
        assert row["no_search_rate"] >= 0.30, row
        assert row["degraded"] == 0, row
        assert row["confident_fraction"] == 1.0, row
