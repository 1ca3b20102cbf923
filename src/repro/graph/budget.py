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
* A tripped checkpoint raises :class:`BudgetExceeded`, which ends the
  search: nothing of its state is handed on. The service's degraded
  rung restarts a bounded search from the endpoints.

Checkpoints are cooperative: a phase that never checkpoints (a single
numpy sweep, a contraction pass) simply runs to its own internal bound
before the next checkpoint fires. This module has no intra-package
imports and sits in the bottom layer, so every layer (graph kernels
included) may call into a budget.
"""

from __future__ import annotations

import time
from typing import List, Optional


class BudgetExceeded(Exception):
    """Raised at a checkpoint once a budget dimension is exhausted.

    ``reason`` is ``"deadline" | "edge-budget"``. A batch kernel sets
    ``decided``: one entry per pair of its batch, the final verdict of a
    lane resolved before the interrupt, ``None`` otherwise.
    """

    decided: Optional[List[Optional[bool]]] = None

    def __init__(self, reason: str, spent: int = 0) -> None:
        super().__init__(f"search budget exceeded ({reason}, {spent} edge accesses)")
        self.reason = reason
        self.spent = spent


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
