"""Sharded multi-process serving: partition, publish, route.

The package cuts one :class:`~repro.graph.digraph.DynamicDiGraph` into K
edge-balanced shards along its SCC condensation (plus a community sweep
inside any SCC too big to balance), publishes each shard's frozen
:class:`~repro.graph.snapshot.CSRSnapshot` into
``multiprocessing.shared_memory`` for zero-copy worker processes, and
routes queries: intra-shard pairs as one worker round trip, cross-shard
pairs as a scatter–gather join of per-shard bit-parallel closures through
the condensation DAG.

Layering: :mod:`repro.shard.partition` is pure graph analysis (no
processes), :mod:`repro.shard.memory` owns the shared-memory segment
protocol, :mod:`repro.shard.worker` is the spawned child's entry point,
:mod:`repro.shard.pipeline` is the fleet's one scheduler (an
event-driven reactor that keeps the worker pool saturated), and
:mod:`repro.shard.router` — whose ``classify_pair`` is the one O(1) rule
ladder — drives the fleet on the primary. The serving engine reaches all of it through
:class:`~repro.shard.router.ShardRouter` only.
"""

from repro.shard.partition import ShardInfo, ShardPlan, partition_graph
from repro.shard.router import (
    ShardRouter,
    ShardWorkerHandle,
    WorkerDied,
    classify_pair,
)

__all__ = [
    "ShardInfo",
    "ShardPlan",
    "partition_graph",
    "ShardRouter",
    "ShardWorkerHandle",
    "WorkerDied",
    "classify_pair",
]
