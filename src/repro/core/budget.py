"""Cooperative interruption of in-flight searches by a spend limit.

The serving engine's original deadline discipline was all-or-nothing: a
blown deadline was only noticed *before* the engine started, so one slow
query still ran its full search while holding a worker and a read lock.
This module makes every search phase interruptible at safe points:

* :class:`Budget` bundles a wall-clock deadline and an edge-access
  ceiling. Searches ``charge()`` edge accesses as they go and call
  :meth:`Budget.checkpoint` at *rung boundaries* — once per guided-drain
  interval, per BiBFS layer, per main-loop round — where their state is
  consistent. A search with neither limit gets no budget at all
  (``budget=None``) and never checkpoints.
* A tripped checkpoint raises :class:`BudgetExceeded`. The raiser (or the
  engine's ``query_with_stats``) attaches a :class:`PartialSearchState`
  when the interrupted search state is soundly exportable, so the
  service's degraded bounded search can resume from the explored
  frontier instead of restarting from the endpoints.

Checkpoints are cooperative: a phase that never checkpoints (a single
numpy sweep, a contraction pass) simply runs to its own internal bound
before the next checkpoint fires. This module has no intra-package
imports, so any layer (graph kernels included) may call into a budget
without creating an import cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set


@dataclass
class PartialSearchState:
    """The soundly exportable remains of an interrupted search.

    Invariant: every vertex in a visited set is genuinely reachable from
    (forward) / can reach (reverse) its endpoint, and every visited vertex
    whose adjacency was not fully enumerated appears in the matching
    frontier. A bidirectional search seeded with these sets therefore
    proves exactly the same answers a fresh one would — it just starts
    closer to the goal. Contracted queries (overlay non-empty) are *not*
    exportable and hand over ``None`` instead.
    """

    fwd_visited: Set[int] = field(default_factory=set)
    rev_visited: Set[int] = field(default_factory=set)
    fwd_frontier: List[int] = field(default_factory=list)
    rev_frontier: List[int] = field(default_factory=list)


class BudgetExceeded(Exception):
    """Raised at a checkpoint once a budget dimension is exhausted.

    ``reason`` is ``"deadline" | "edge-budget"``;
    ``partial`` carries the interrupted search state when the raiser could
    export it soundly (``None`` otherwise). A batch kernel sets
    ``decided`` instead: one entry per pair of its batch, the final
    verdict of a lane resolved before the interrupt, ``None`` otherwise.
    """

    decided: Optional[List[Optional[bool]]] = None

    def __init__(
        self,
        reason: str,
        spent: int = 0,
        partial: Optional[PartialSearchState] = None,
    ) -> None:
        super().__init__(f"search budget exceeded ({reason}, {spent} edge accesses)")
        self.reason = reason
        self.spent = spent
        self.partial = partial


class Budget:
    """A per-query spend tracker: a deadline plus an edge ceiling.

    Either limit may be ``None`` and is then never checked, so a
    deadline-free budget never calls the clock.
    """

    __slots__ = ("deadline", "edge_ceiling", "spent")

    def __init__(
        self,
        deadline: Optional[float] = None,
        edge_ceiling: Optional[int] = None,
    ) -> None:
        #: Absolute ``time.perf_counter()`` timestamp, or ``None``.
        self.deadline = deadline
        self.edge_ceiling = edge_ceiling
        self.spent = 0

    @classmethod
    def from_timeout(
        cls, timeout_s: Optional[float], edge_ceiling: Optional[int] = None
    ) -> "Budget":
        deadline = (
            time.perf_counter() + timeout_s if timeout_s is not None else None
        )
        return cls(deadline=deadline, edge_ceiling=edge_ceiling)

    def charge(self, edges: int) -> None:
        """Record ``edges`` accesses against the ceiling (no check)."""
        self.spent += edges

    def reason(self) -> Optional[str]:
        """The first exhausted dimension, or ``None`` while within budget."""
        if self.edge_ceiling is not None and self.spent > self.edge_ceiling:
            return "edge-budget"
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return "deadline"
        return None

    def checkpoint(self, edges: int = 0) -> None:
        """Charge ``edges``, then raise :class:`BudgetExceeded` if spent."""
        if edges:
            self.spent += edges
        why = self.reason()
        if why is not None:
            raise BudgetExceeded(why, self.spent)
