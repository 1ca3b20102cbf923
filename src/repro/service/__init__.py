"""The concurrent reachability query-serving engine.

A serving front-end around the exact IFCA engine: O'Reach-style O(1)
fast-path observations, a version-stamped LRU result cache with
update-aware invalidation, per-query deadlines and graceful
degradation on the caller's thread (the service owns none) — and a
fault-tolerance layer: pluggable fault
injection, a circuit breaker over the kernel substrate with a dict
fallback twin, cooperative mid-search budget checks, the retry-after
hint for socket-layer load shedding, and an optional write-ahead update
journal. See
``docs/service.md``.
"""

from repro.service.batcher import (
    BatchCostModel,
    BatchPlan,
    Wave,
    pack_waves,
    plan_batch,
)
from repro.service.cache import VersionedQueryCache
from repro.service.concurrency import RWLock
from repro.service.driver import ReplayResult, replay_workload
from repro.service.engine import QueryOutcome, ReachabilityService
from repro.service.fastpath import FastPathPruner, UpdateEffect
from repro.service.faults import (
    NAMED_PLANS,
    Backoff,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    plan_by_name,
)
from repro.service.stats import ServiceStats

__all__ = [
    "Backoff",
    "BatchCostModel",
    "BatchPlan",
    "CircuitBreaker",
    "FastPathPruner",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "NAMED_PLANS",
    "QueryOutcome",
    "RWLock",
    "ReachabilityService",
    "ReplayResult",
    "ServiceStats",
    "UpdateEffect",
    "VersionedQueryCache",
    "Wave",
    "pack_waves",
    "plan_batch",
    "plan_by_name",
    "replay_workload",
]
