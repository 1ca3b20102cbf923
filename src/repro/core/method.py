"""The uniform interface every reachability method implements.

The dynamic driver (:mod:`repro.dynamic.driver`), the comparison
experiments, and the QpU sweeps all interact with methods exclusively
through this interface, mirroring how the paper times "query" and "update"
as the two primitive operations of each framework. IFCA implements it as
well as every competitor, so it lives in ``core`` and ``baselines`` builds
on it.
"""

from __future__ import annotations

import abc

from repro.graph.digraph import DynamicDiGraph


class ReachabilityMethod(abc.ABC):
    """A reachability framework bound to one (possibly dynamic) graph.

    Subclasses own whatever state they need (an index, the adjacency lists,
    nothing at all) and must keep it consistent under the update methods.
    """

    #: Human-readable name used in result tables.
    name: str = "abstract"
    #: Whether the method guarantees exact answers.
    exact: bool = True
    #: Whether the method supports :meth:`delete_edge`.
    supports_deletions: bool = True

    def __init__(self, graph: DynamicDiGraph) -> None:
        self.graph = graph

    @abc.abstractmethod
    def query(self, source: int, target: int) -> bool:
        """Answer whether ``target`` is reachable from ``source``."""

    def insert_edge(self, source: int, target: int) -> None:
        """Apply an edge insertion (index-free default: adjacency only)."""
        self.graph.add_edge(source, target)

    def delete_edge(self, source: int, target: int) -> None:
        """Apply an edge deletion (index-free default: adjacency only)."""
        if not self.supports_deletions:
            raise NotImplementedError(
                f"{self.name} does not support edge deletions"
            )
        self.graph.remove_edge(source, target)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
