"""Closed-loop workload replay against a :class:`ReachabilityService`.

The driver walks one interleaved operation stream (see
:mod:`repro.workloads.mixed`) on the driving thread: updates are applied
in stream order and each query is one walk — the closed-loop discipline
keeps every query's snapshot well-defined.

Used by ``python -m repro chaos``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.service.engine import QueryOutcome, ReachabilityService
from repro.workloads.mixed import DELETE, INSERT, Op


@dataclass
class ReplayResult:
    """What one closed-loop run did."""

    num_queries: int
    num_updates: int
    outcomes: List[QueryOutcome] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: Updates that raised (injected faults). The service guarantees a
    #: failed update mutated nothing, so the replay keeps going — chaos
    #: runs count these instead of crashing.
    failed_updates: int = 0


def replay_workload(
    service: ReachabilityService,
    ops: Sequence[Op],
    *,
    deadline_s: Optional[float] = None,
) -> ReplayResult:
    """Drive the stream through the service; returns outcomes + stats."""
    outcomes: List[QueryOutcome] = []
    num_updates = 0
    failed_updates = 0
    for op in ops:
        if op.is_query:
            outcomes.append(service.query(op.u, op.v, deadline_s))
            continue
        num_updates += 1
        try:
            if op.kind == INSERT:
                service.add_edge(op.u, op.v)
            elif op.kind == DELETE:
                service.remove_edge(op.u, op.v)
        except Exception:
            # Failed updates are atomic (the service fires faults
            # before mutating), so the stream stays replayable.
            failed_updates += 1

    return ReplayResult(
        num_queries=len(outcomes),
        num_updates=num_updates,
        outcomes=outcomes,
        stats=service.stats(),
        failed_updates=failed_updates,
    )
