"""Closed-loop workload replay against a :class:`ReachabilityService`.

The driver walks one interleaved operation stream (see
:mod:`repro.workloads.mixed`) on the driving thread: updates are applied
in stream order and each query is one walk — the closed-loop discipline
keeps every query's snapshot well-defined.

Used by ``python -m repro chaos``, whose ``--oracle`` checks the run
with :func:`oracle_mismatches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.service.engine import QueryOutcome, ReachabilityService
from repro.workloads.mixed import DELETE, INSERT, Op


@dataclass
class ReplayResult:
    """What one closed-loop run did."""

    num_queries: int
    num_updates: int
    outcomes: List[QueryOutcome] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)
    #: Positions in the op stream of the updates that raised (injected
    #: faults). The service guarantees a failed update mutated nothing,
    #: so the replay keeps going, and an oracle replays the stream
    #: without them.
    failed_updates: List[int] = field(default_factory=list)


def replay_workload(
    service: ReachabilityService,
    ops: Sequence[Op],
    *,
    deadline_s: Optional[float] = None,
) -> ReplayResult:
    """Drive the stream through the service; returns outcomes + stats."""
    outcomes: List[QueryOutcome] = []
    num_updates = 0
    failed_updates: List[int] = []
    for position, op in enumerate(ops):
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
            failed_updates.append(position)

    return ReplayResult(
        num_queries=len(outcomes),
        num_updates=num_updates,
        outcomes=outcomes,
        stats=service.stats(),
        failed_updates=failed_updates,
    )


def oracle_mismatches(
    start: DynamicDiGraph, ops: Sequence[Op], result: ReplayResult
) -> Tuple[int, List[QueryOutcome]]:
    """Check every confident answer of ``result`` at its own version.

    Replays ``ops`` onto ``start`` (a copy of the graph the run began
    from; it is mutated), skipping the updates that failed, and checks
    each confident outcome against a BFS on the graph as it stood when
    its query was reached. An outcome stamped with another version than
    that graph's is wrong too. Returns ``(checked, wrong outcomes)``.
    """
    failed = set(result.failed_updates)
    outcomes = iter(result.outcomes)
    checked = 0
    wrong: List[QueryOutcome] = []
    for position, op in enumerate(ops):
        if op.is_query:
            outcome = next(outcomes)
            if not outcome.confident:
                continue
            checked += 1
            if outcome.version != start.version or outcome.answer != (
                is_reachable_bfs(start, outcome.source, outcome.target)
            ):
                wrong.append(outcome)
        elif position not in failed:
            if op.kind == INSERT:
                start.add_edge(op.u, op.v)
            elif op.kind == DELETE:
                start.remove_edge(op.u, op.v)
    return checked, wrong
