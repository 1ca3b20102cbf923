"""ARROW — approximate reachability by random walks (Sengupta et al., ICDE 2019).

ARROW answers ``s -> t`` by launching random walks from ``s`` (and, in the
bidirectional variant, reverse walks from ``t``) and reporting reachable
when any walk touches the target's side. It is index-free (updates touch
only adjacency) but approximate: it can report false negatives, so the
paper tunes its knobs until accuracy exceeds 95% (Sec. VI-C).

Knobs, reproduced per the paper's protocol:

* ``c_walk_length`` — walk length = ``ceil(c_walk_length * L)`` where ``L``
  is a sampled diameter estimate of the current snapshot (the paper sets
  ``c_walkLength = 1``);
* ``c_num_walks`` — number of walks = ``ceil(c_num_walks * sqrt(m))``;
  starts at 0.01 and is enlarged in 0.01 steps by
  :func:`tune_arrow_accuracy` until measured accuracy exceeds the target.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.core.method import ReachabilityMethod
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import estimate_diameter

_DIAMETER_SAMPLES = 8
_MIN_WALK_LENGTH = 4


class ArrowMethod(ReachabilityMethod):
    """ARROW behind the uniform competitor interface."""

    name = "ARROW"
    exact = False
    supports_deletions = True

    def __init__(
        self,
        graph: DynamicDiGraph,
        c_walk_length: float = 1.0,
        c_num_walks: float = 0.01,
        bidirectional: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(graph)
        if c_walk_length <= 0 or c_num_walks <= 0:
            raise ValueError("ARROW constants must be positive")
        self.c_walk_length = c_walk_length
        self.c_num_walks = c_num_walks
        self.bidirectional = bidirectional
        self._rng = random.Random(seed)
        self._diameter_estimate: Optional[int] = None
        self._diameter_edges = -1

    # ------------------------------------------------------------------
    def _walk_length(self) -> int:
        m = self.graph.num_edges
        if self._diameter_estimate is None or abs(m - self._diameter_edges) > max(
            0.2 * max(self._diameter_edges, 1), 16
        ):
            vertices = list(self.graph.vertices())
            if vertices:
                samples = [
                    vertices[self._rng.randrange(len(vertices))]
                    for _ in range(min(_DIAMETER_SAMPLES, len(vertices)))
                ]
                self._diameter_estimate = max(
                    estimate_diameter(self.graph, samples), _MIN_WALK_LENGTH
                )
            else:
                self._diameter_estimate = _MIN_WALK_LENGTH
            self._diameter_edges = m
        return max(int(math.ceil(self.c_walk_length * self._diameter_estimate)), 1)

    def _num_walks(self) -> int:
        m = max(self.graph.num_edges, 1)
        return max(int(math.ceil(self.c_num_walks * math.sqrt(m))), 1)

    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> bool:
        if source == target:
            return True
        if source not in self.graph or target not in self.graph:
            return False
        length = self._walk_length()
        walks = self._num_walks()
        if not self.bidirectional:
            return self._unidirectional(source, target, walks, length)
        # Bidirectional: seed the target side with one bounded reverse
        # exploration, then check forward walks against it.
        reverse_seen = self._reverse_territory(target, walks, length)
        if source in reverse_seen:
            return True
        for _ in range(walks):
            if self._forward_walk_hits(source, reverse_seen, length):
                return True
        return False

    def _unidirectional(
        self, source: int, target: int, walks: int, length: int
    ) -> bool:
        for _ in range(walks):
            if self._forward_walk_hits(source, {target}, length):
                return True
        return False

    def _forward_walk_hits(self, source: int, goal_set, length: int) -> bool:
        current = source
        for _ in range(length):
            nbrs = self.graph.out_neighbors(current)
            if not nbrs:
                return False
            current = nbrs[self._rng.randrange(len(nbrs))]
            if current in goal_set:
                return True
        return False

    def _reverse_territory(self, target: int, walks: int, length: int):
        seen = {target}
        for _ in range(walks):
            current = target
            for _ in range(length):
                nbrs = self.graph.in_neighbors(current)
                if not nbrs:
                    break
                current = nbrs[self._rng.randrange(len(nbrs))]
                seen.add(current)
        return seen


def tune_arrow_accuracy(
    graph: DynamicDiGraph,
    queries: Sequence[Tuple[int, int]],
    ground_truth: Sequence[bool],
    target_accuracy: float = 0.95,
    c_num_walks_start: float = 0.01,
    c_num_walks_step: float = 0.01,
    max_steps: int = 200,
    seed: Optional[int] = 0,
) -> Tuple[ArrowMethod, float]:
    """The paper's tuning loop: grow ``c_numWalks`` until accuracy > target.

    Returns the tuned method and the achieved accuracy. Raises
    ``RuntimeError`` when ``max_steps`` increments do not suffice.
    """
    if len(queries) != len(ground_truth):
        raise ValueError("queries and ground_truth must have equal length")
    c = c_num_walks_start
    for _ in range(max_steps):
        method = ArrowMethod(graph, c_num_walks=c, seed=seed)
        if not queries:
            return method, 1.0
        correct = sum(
            1
            for (s, t), expected in zip(queries, ground_truth)
            if method.query(s, t) == expected
        )
        accuracy = correct / len(queries)
        if accuracy >= target_accuracy:
            return method, accuracy
        c += c_num_walks_step
    raise RuntimeError(
        f"ARROW accuracy {target_accuracy} not reached within {max_steps} steps"
    )
