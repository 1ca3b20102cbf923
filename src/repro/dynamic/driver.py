"""The dynamic replay driver: the paper's update/query benchmark loop.

Sec. VI's protocol: split the stream's time span into intervals; after each
interval's batch of updates, issue a batch of queries on the current
snapshot. The driver times updates and queries separately per method,
tracks accuracy against a BFS oracle on a shadow graph, and reports
per-sign (positive/negative) query timings — everything Fig. 6, Tab. III,
and the QpU sweeps need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.method import ReachabilityMethod
from repro.dynamic.events import TemporalEdgeStream, apply_event
from repro.graph.digraph import DynamicDiGraph
from repro.workloads.queries import generate_queries, label_queries

MethodFactory = Callable[[DynamicDiGraph], ReachabilityMethod]


@dataclass
class DynamicWorkload:
    """A reusable description of one replay: initial graph + stream +
    query-batch parameters."""

    initial: DynamicDiGraph
    stream: TemporalEdgeStream
    num_batches: int = 10
    queries_per_batch: int = 50
    seed: int = 0


@dataclass
class ReplayResult:
    """Aggregated timings and accuracy for one method over one replay."""

    method_name: str
    num_updates: int = 0
    num_queries: int = 0
    num_positive: int = 0
    num_negative: int = 0
    total_update_time: float = 0.0
    total_query_time: float = 0.0
    positive_query_time: float = 0.0
    negative_query_time: float = 0.0
    num_correct: int = 0
    skipped_deletions: int = 0
    per_batch_query_time: List[float] = field(default_factory=list)

    @property
    def avg_update_time(self) -> float:
        return self.total_update_time / self.num_updates if self.num_updates else 0.0

    @property
    def avg_query_time(self) -> float:
        return self.total_query_time / self.num_queries if self.num_queries else 0.0

    @property
    def avg_positive_query_time(self) -> float:
        return self.positive_query_time / self.num_positive if self.num_positive else 0.0

    @property
    def avg_negative_query_time(self) -> float:
        return self.negative_query_time / self.num_negative if self.num_negative else 0.0

    @property
    def accuracy(self) -> float:
        return self.num_correct / self.num_queries if self.num_queries else 1.0

    def total_time(self, queries_per_update: float) -> float:
        """The Fig. 8/9 quantity: avg time of one update plus ``QpU`` queries."""
        return self.avg_update_time + queries_per_update * self.avg_query_time


def replay(
    factory: MethodFactory,
    workload: DynamicWorkload,
    method_name: Optional[str] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> ReplayResult:
    """Run one method through the update/query protocol.

    The method gets its own copy of the initial snapshot (index built at
    construction, untimed, as the paper does for the initial state); a
    shadow copy plus BFS provides ground truth. Methods that cannot delete
    (DBL) skip deletions, which is counted in ``skipped_deletions`` —
    mirroring why the paper excludes DBL from the main comparison.
    """
    method_graph = workload.initial.copy()
    method = factory(method_graph)
    shadow = workload.initial.copy()
    result = ReplayResult(method_name=method_name or method.name)

    batches = workload.stream.batches(workload.num_batches)
    for batch_index, batch in enumerate(batches):
        # -- update phase -------------------------------------------------
        for event in batch:
            apply_event(shadow, event)
            if not event.insert and not method.supports_deletions:
                result.skipped_deletions += 1
                continue
            start = clock()
            if event.insert:
                method.insert_edge(event.source, event.target)
            else:
                method.delete_edge(event.source, event.target)
            result.total_update_time += clock() - start
            result.num_updates += 1
        # -- query phase ---------------------------------------------------
        queries = generate_queries(
            shadow,
            workload.queries_per_batch,
            seed=workload.seed * 7919 + batch_index,
        )
        labeled = label_queries(shadow, queries)
        batch_time = 0.0
        for (s, t), expected in zip(labeled.queries, labeled.ground_truth):
            start = clock()
            answer = method.query(s, t)
            elapsed = clock() - start
            batch_time += elapsed
            result.total_query_time += elapsed
            result.num_queries += 1
            if expected:
                result.num_positive += 1
                result.positive_query_time += elapsed
            else:
                result.num_negative += 1
                result.negative_query_time += elapsed
            if answer == expected:
                result.num_correct += 1
        result.per_batch_query_time.append(batch_time)
    return result
