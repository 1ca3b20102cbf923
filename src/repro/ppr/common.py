"""Shared state and configuration for push-based PPR.

The paper parameterizes push by two functions (Sec. III-A): the
neighbor-weight divisor ``f_dist`` and the threshold normalization
``f_norm``. Forward push uses ``d_out(u)`` for both.

:class:`PushState` holds the residue/reserve maps plus a worklist of
vertices whose normalized residue is above the current threshold, giving
each push step O(1) amortized vertex selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set


@dataclass
class PushConfig:
    """Parameters of a push computation."""

    alpha: float = 0.1
    epsilon: float = 1e-4

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class PushState:
    """Residue/reserve vectors stored sparsely, plus push statistics."""

    residue: Dict[int, float] = field(default_factory=dict)
    reserve: Dict[int, float] = field(default_factory=dict)
    #: Number of edge accesses performed so far (the paper's cost unit).
    edge_accesses: int = 0
    #: Number of individual push operations (vertex expansions).
    push_operations: int = 0

    @classmethod
    def indicator(cls, source: int) -> "PushState":
        """The initial state chi_source: all residue concentrated at the source."""
        state = cls()
        state.residue[source] = 1.0
        return state


class Worklist:
    """A set-backed FIFO of vertices pending a push.

    Vertices may be re-enqueued after being popped (their residue can grow
    back above the threshold); membership is deduplicated.
    """

    __slots__ = ("_queue", "_members")

    def __init__(self) -> None:
        self._queue: List[int] = []
        self._members: Set[int] = set()

    def push(self, v: int) -> None:
        if v not in self._members:
            self._members.add(v)
            self._queue.append(v)

    def pop(self) -> int:
        v = self._queue.pop()
        self._members.discard(v)
        return v

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __contains__(self, v: int) -> bool:
        return v in self._members
