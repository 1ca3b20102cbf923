"""Per-query search state: direction states and the reduced-graph overlay.

Community contraction never mutates the base graph. Instead, each query
carries an overlay (the paper's "virtual updates", Sec. V-C): a ``find``
map sending contracted vertices to their super-vertex, plus explicit
adjacency for the two super-vertices. Every adjacency scan maps raw
neighbor ids through ``find`` on access.

Super-vertex ids are the sentinels ``SUPER_FORWARD = -1`` and
``SUPER_REVERSE = -2``; base-graph vertex ids must therefore be
non-negative wherever IFCA is used (checked at query time).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.budget import Budget, PartialSearchState
from repro.core.params import ResolvedParams
from repro.graph.digraph import DynamicDiGraph

SUPER_FORWARD = -1
SUPER_REVERSE = -2


class DirectionState:
    """The state of one search direction (forward from ``s`` or reverse
    from ``t``): residues, visited/explored sets, the super-vertex, and the
    ``intEdges`` estimate used by the cost model.

    A ``__slots__`` class rather than a dataclass: two of these are built
    per query, and ``super_sentinel`` is read inside the hot loops.
    """

    __slots__ = (
        "forward",
        "residue",
        "visited",
        "explored",
        "int_edges",
        "super_id",
        "super_adj",
        "merged",
        "contractions",
        "super_sentinel",
    )

    def __init__(self, forward: bool) -> None:
        self.forward = forward
        self.residue: Dict[int, float] = {}
        self.visited: Set[int] = set()
        self.explored: Set[int] = set()
        self.int_edges = 0
        self.super_id = 0  # 0 = not created yet (never a real super id)
        self.super_adj: List[int] = []
        self.merged: Set[int] = set()
        self.contractions = 0
        self.super_sentinel = SUPER_FORWARD if forward else SUPER_REVERSE

    @property
    def has_super(self) -> bool:
        return self.super_id != 0


class SearchContext:
    """Everything one IFCA query needs: both direction states, the shared
    ``find`` overlay, and the running reduced-graph size counters."""

    __slots__ = (
        "graph",
        "params",
        "source",
        "target",
        "fwd",
        "rev",
        "find",
        "m_reduced",
        "n_reduced",
        "epsilon_cur",
        "budget",
    )

    def __init__(
        self,
        graph: DynamicDiGraph,
        params: ResolvedParams,
        source: int,
        target: int,
        budget: Optional[Budget] = None,
    ) -> None:
        self.graph = graph
        self.params = params
        self.source = source
        self.target = target
        self.fwd = DirectionState(forward=True)
        self.rev = DirectionState(forward=False)
        self.fwd.residue[source] = 1.0
        self.fwd.visited.add(source)
        self.rev.residue[target] = 1.0
        self.rev.visited.add(target)
        self.find: Dict[int, int] = {}
        self.m_reduced = graph.num_edges
        self.n_reduced = graph.num_vertices
        self.epsilon_cur = params.epsilon_init
        self.budget = budget

    # ------------------------------------------------------------------
    # Overlay-aware adjacency
    # ------------------------------------------------------------------
    def resolve(self, v: int) -> int:
        """Map a raw vertex id through the contraction overlay."""
        return self.find.get(v, v)

    def other(self, state: DirectionState) -> DirectionState:
        return self.rev if state.forward else self.fwd

    # ------------------------------------------------------------------
    # Cost-model progress protocol (shared with ArraySearchContext)
    # ------------------------------------------------------------------
    def progress(self) -> "tuple[int, int, int, int, bool]":
        """``(explored_f, explored_r, int_edges_f, int_edges_r, started)``.

        The five numbers Alg. 6 reads each round. ``started`` is whether
        any exploration or contraction has happened yet — while it is
        ``False`` the decision depends only on ``(n, m, epsilon_cur)`` and
        the cost model may use its memoized round-1 answer. The array-state
        context (:class:`repro.core.array_search.ArraySearchContext`)
        implements the same protocol, which is all the cost model needs.
        """
        fwd, rev = self.fwd, self.rev
        started = bool(
            fwd.explored or rev.explored or fwd.merged or rev.merged
        )
        return (
            len(fwd.explored),
            len(rev.explored),
            fwd.int_edges,
            rev.int_edges,
            started,
        )

    # ------------------------------------------------------------------
    # Frontier for the BiBFS hand-off (Alg. 2 lines 18-19)
    # ------------------------------------------------------------------
    def frontier(self, state: DirectionState) -> List[int]:
        """Visited-but-unexplored vertices: exactly the vertices whose
        adjacency has not been fully enumerated yet.

        The paper defines the hand-off frontier as the positive-residue
        vertices; with contraction retaining frontier residues the two
        definitions coincide, and this one is robust to floating-point
        underflow (see DESIGN.md).
        """
        return [v for v in state.visited if v not in state.explored]

    # ------------------------------------------------------------------
    # Partial-state export for the degraded bounded search
    # ------------------------------------------------------------------
    def export_state(self) -> Optional[PartialSearchState]:
        """The interrupted search state, if soundly exportable.

        Only contraction-free queries export: once an overlay exists, the
        visited sets mix raw ids with super sentinels and no raw-graph
        seeding is sound — return ``None`` and let the degraded search
        restart from the endpoints. Visited-but-unexplored vertices are
        exactly the sound frontier (their adjacency was never fully
        enumerated; every explored vertex's neighbors are all visited).
        """
        if self.find or self.fwd.has_super or self.rev.has_super:
            return None
        return PartialSearchState(
            fwd_visited=set(self.fwd.visited),
            rev_visited=set(self.rev.visited),
            fwd_frontier=self.frontier(self.fwd),
            rev_frontier=self.frontier(self.rev),
        )
