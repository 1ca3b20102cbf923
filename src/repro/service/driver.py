"""Closed-loop workload replay against a :class:`ReachabilityService`.

The driver walks one interleaved operation stream (see
:mod:`repro.workloads.mixed`) on the driving thread: updates are applied
in stream order, runs of consecutive queries are flushed through
``query_batch`` in chunks of ``batch_size`` (1 = one walk per query)
before the next update — the closed-loop discipline keeps every query's
snapshot well-defined.

Used by both ``python -m repro serve-bench`` and
``benchmarks/bench_service.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.engine import QueryOutcome, ReachabilityService
from repro.workloads.mixed import DELETE, INSERT, Op


@dataclass
class ReplayResult:
    """What one closed-loop run did and how fast."""

    num_queries: int
    num_updates: int
    wall_seconds: float
    outcomes: List[QueryOutcome] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: Updates that raised (injected faults, write-lock timeouts). The
    #: service guarantees a failed update mutated nothing, so the replay
    #: keeps going — chaos runs count these instead of crashing.
    failed_updates: int = 0

    @property
    def ops_per_second(self) -> float:
        total = self.num_queries + self.num_updates
        return total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def queries_per_second(self) -> float:
        return (
            self.num_queries / self.wall_seconds if self.wall_seconds > 0 else 0.0
        )

    def summary_row(self) -> Dict[str, object]:
        """One flat row for result tables / ExperimentRecords."""
        counters: Dict[str, int] = self.stats.get("counters", {})  # type: ignore[assignment]
        derived: Dict[str, float] = self.stats.get("derived", {})  # type: ignore[assignment]
        confident = sum(1 for o in self.outcomes if o.confident)
        return {
            "queries": self.num_queries,
            "updates": self.num_updates,
            "wall_s": round(self.wall_seconds, 4),
            "qps": round(self.queries_per_second, 1),
            "fastpath_rate": round(derived.get("fastpath_rate", 0.0), 4),
            "cache_hit_rate": round(derived.get("cache_hit_rate", 0.0), 4),
            "no_search_rate": round(derived.get("no_search_rate", 0.0), 4),
            "degraded": counters.get("degraded", 0),
            "confident_fraction": (
                round(confident / len(self.outcomes), 4) if self.outcomes else 1.0
            ),
            "failed_updates": self.failed_updates,
            # Batch-path observability: occupancy and the batch_* family
            # ride along so serve-bench JSON (and everything built on
            # summary rows) exposes them without reading engine internals.
            "word_occupancy": round(derived.get("word_occupancy", 0.0), 4),
            "bit_waves": counters.get("bit_waves", 0),
            "bit_resolved": counters.get("bit_resolved", 0),
            "batched_dedup": counters.get("batched_dedup", 0),
            "batch_prefilter_hits": counters.get("batch_prefilter_hits", 0),
            "batch_scalar_queries": counters.get("batch_scalar_queries", 0),
            "batch_auto_bitparallel": counters.get("batch_auto_bitparallel", 0),
            "batch_auto_scalar": counters.get("batch_auto_scalar", 0),
            "batch_wave_failures": counters.get("batch_wave_failures", 0),
            # Label-tier observability: hit split, incremental update
            # volume, and staleness ride the same flat row.
            "label_hits_pos": counters.get("label_hits_pos", 0),
            "label_hits_neg": counters.get("label_hits_neg", 0),
            "label_updates": counters.get("label_updates", 0),
            "label_rebuilds": counters.get("label_rebuilds", 0),
            "label_staleness": counters.get("label_staleness", 0),
        }


def replay_workload(
    service: ReachabilityService,
    ops: Sequence[Op],
    *,
    deadline_s: Optional[float] = None,
    batch_size: int = 1,
) -> ReplayResult:
    """Drive the stream through the service; returns timing + stats.

    Consecutive query ops are coalesced into
    :meth:`~repro.service.engine.ReachabilityService.query_batch` calls
    of up to ``batch_size`` pairs, flushed by an update op (a barrier:
    it takes the write lock) or stream end — the replay shape of a
    client-side request coalescer in front of the service.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    outcomes: List[QueryOutcome] = []
    num_queries = 0
    num_updates = 0
    failed_updates = 0
    pending: List[Tuple[int, int]] = []

    def flush() -> None:
        if pending:
            outcomes.extend(service.query_batch(pending, deadline_s))
            pending.clear()

    start = time.perf_counter()
    for op in ops:
        if op.is_query:
            pending.append((op.u, op.v))
            num_queries += 1
            if len(pending) >= batch_size:
                flush()
        else:
            flush()
            try:
                if op.kind == INSERT:
                    service.add_edge(op.u, op.v)
                elif op.kind == DELETE:
                    service.remove_edge(op.u, op.v)
            except Exception:
                # Failed updates are atomic (the service fires faults
                # before mutating), so the stream stays replayable.
                failed_updates += 1
            num_updates += 1
    flush()
    wall = time.perf_counter() - start

    return ReplayResult(
        num_queries=num_queries,
        num_updates=num_updates,
        wall_seconds=wall,
        outcomes=outcomes,
        stats=service.stats(),
        failed_updates=failed_updates,
    )
