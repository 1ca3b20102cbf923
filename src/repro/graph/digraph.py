"""A dynamic directed graph with O(1) amortized inserts and O(deg) deletes.

This is the substrate every algorithm in the package runs on. The design
follows the paper's index-free philosophy: graph updates touch nothing but
the adjacency lists (Sec. V-A, "When the graph is updated, only the
adjacency lists are modified accordingly").

Representation
--------------
Out- and in-adjacency are ``dict[int, list[int]]``. ``add_edge`` appends
(O(1) amortized); ``remove_edge`` finds the neighbor with ``list.index``
and swap-removes it, so it costs O(deg) of the two endpoints (order of
neighbors is not guaranteed, which no algorithm here relies on). Parallel
edges are rejected so that ``m`` always counts distinct edges, matching
the paper's simple graph model.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


class DynamicDiGraph:
    """A mutable, simple, directed graph over integer vertex ids.

    Vertices are created implicitly by :meth:`add_edge` / :meth:`add_vertex`.
    Both adjacency directions are maintained so that reverse traversals
    (backward push, reverse BFS) cost the same as forward ones.
    """

    __slots__ = (
        "_out",
        "_in",
        "_num_edges",
        "_edge_set",
        "_version",
        "_csr_state",
    )

    def __init__(
        self,
        edges: Optional[Iterable[Tuple[int, int]]] = None,
        vertices: Optional[Iterable[int]] = None,
    ) -> None:
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        self._edge_set: Set[Tuple[int, int]] = set()
        self._num_edges = 0
        self._version = 0
        self._csr_state: Optional[Tuple[int, int, object]] = None
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """The number of vertices currently in the graph (``n``)."""
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """The number of directed edges currently in the graph (``m``)."""
        return self._num_edges

    @property
    def version(self) -> int:
        """A monotonic epoch counter, bumped on every effective mutation.

        No-op mutations (adding an existing vertex/edge, removing a missing
        one) leave it unchanged, so ``version`` identifies a snapshot: two
        reads of the same graph with equal versions saw identical edge
        sets. Consumers (the service cache, the fast-path pruner) stamp
        derived state with the version it was computed at.
        """
        return self._version

    @property
    def average_degree(self) -> float:
        """``m / n``; 0.0 on the empty graph."""
        n = self.num_vertices
        return self._num_edges / n if n else 0.0

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids."""
        return iter(self._out)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all directed edges as ``(u, v)`` pairs."""
        for u, nbrs in self._out.items():
            for v in nbrs:
                yield (u, v)

    def has_vertex(self, v: int) -> bool:
        return v in self._out

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_set

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        """Add an isolated vertex; a no-op if it already exists."""
        if v not in self._out:
            self._out[v] = []
            self._in[v] = []
            self._version += 1

    def add_edge(self, u: int, v: int) -> bool:
        """Insert the directed edge ``(u, v)``.

        Returns ``True`` if the edge was inserted, ``False`` if it already
        existed (parallel edges are not stored). Self-loops are allowed;
        they never affect reachability answers.
        """
        if (u, v) in self._edge_set:
            return False
        self.add_vertex(u)
        self.add_vertex(v)
        self._out[u].append(v)
        self._in[v].append(u)
        self._edge_set.add((u, v))
        self._num_edges += 1
        self._version += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete the directed edge ``(u, v)``.

        Returns ``True`` if it existed. O(deg): a ``list.index`` scan of
        each endpoint's list, then swap-removal, so adjacency order is not
        stable across deletions.
        """
        if (u, v) not in self._edge_set:
            return False
        self._edge_set.discard((u, v))
        self._swap_remove(self._out[u], v)
        self._swap_remove(self._in[v], u)
        self._num_edges -= 1
        self._version += 1
        return True

    def remove_vertex(self, v: int) -> bool:
        """Delete a vertex and all its incident edges."""
        if v not in self._out:
            return False
        for w in list(self._out[v]):
            self.remove_edge(v, w)
        for w in list(self._in[v]):
            self.remove_edge(w, v)
        del self._out[v]
        del self._in[v]
        self._version += 1
        return True

    def restore_version(self, version: int) -> None:
        """Realign the epoch counter after journal replay.

        Replaying a journal rebuilds the edge set deterministically but not
        necessarily with the same *number* of effective mutations the
        original process performed (a recovered base graph may batch what
        was once incremental). Version-stamped derived state (cache
        entries, journal records) written before the crash must compare
        correctly against post-recovery versions, so recovery pins the
        counter to the last durably recorded version. Monotonicity is
        enforced: the counter never moves backwards.
        """
        if version < self._version:
            raise ValueError(
                f"cannot restore version {version}: counter already at "
                f"{self._version} (versions are monotone)"
            )
        if version != self._version:
            self._version = version
            self._csr_state = None

    @staticmethod
    def _swap_remove(lst: List[int], value: int) -> None:
        idx = lst.index(value)
        lst[idx] = lst[-1]
        lst.pop()

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> List[int]:
        """The list of out-neighbors of ``v`` (do not mutate)."""
        return self._out[v]

    def in_neighbors(self, v: int) -> List[int]:
        """The list of in-neighbors of ``v`` (do not mutate)."""
        return self._in[v]

    def neighbors(self, v: int, forward: bool) -> List[int]:
        """Directional adjacency: out-neighbors if ``forward`` else in-."""
        return self._out[v] if forward else self._in[v]

    def adjacency(self, forward: bool) -> Dict[int, List[int]]:
        """The raw directional adjacency map.

        Exposed for the hot loops (guided search, BiBFS), which bind it to
        a local to avoid per-edge method-call overhead. Treat as read-only.
        """
        return self._out if forward else self._in

    # ------------------------------------------------------------------
    # Frozen CSR read view
    # ------------------------------------------------------------------
    def csr(self, build: bool = True):
        """A frozen CSR view of the current epoch.

        The view is keyed by :attr:`version`: any effective mutation makes
        the cached snapshot stale, after which it is rebuilt lazily — at
        most once per graph epoch — on the next ``build=True`` call.
        ``build=False`` is the pure probe the hot paths use: it returns
        the snapshot only when one is already frozen *for this exact
        version*, never paying a freeze mid-churn, and ``None`` otherwise.

        Thread-safety matches the rest of the class: concurrent readers
        may race to build the same version (both produce identical
        snapshots; one reference wins the single-assignment publish), but
        mutations must not run concurrently with ``build=True``.
        """
        # Keyed by (version, pid): a snapshot frozen before a fork belongs
        # to the parent's address-space segment, and its own version-keyed
        # side caches (narrow-target tables, degree tables) key by
        # segment_token — a child process serving it would mix parent-era
        # tokens with child-era rebuilds. The pid guard makes every forked
        # or spawned worker rebuild (or attach) its own segment instead of
        # inheriting a stale view.
        state = self._csr_state
        if (
            state is not None
            and state[0] == self._version
            and state[1] == os.getpid()
        ):
            return state[2]
        if not build:
            return None
        from repro.graph.snapshot import CSRSnapshot

        snapshot = CSRSnapshot.freeze(self)
        self._csr_state = (self._version, os.getpid(), snapshot)
        return snapshot

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Total degree ``d_out(v) + d_in(v)`` (the paper's ``vol`` unit)."""
        return len(self._out[v]) + len(self._in[v])

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "DynamicDiGraph":
        """An independent deep copy of the current snapshot.

        The version counter is preserved: a copy identifies the *same*
        snapshot, so version-keyed derived state (journal base versions,
        replication watermarks) compares correctly against the copy.
        """
        g = DynamicDiGraph()
        for v in self._out:
            g.add_vertex(v)
        for u, v in self.edges():
            g.add_edge(u, v)
        g._version = self._version
        return g

    def reversed(self) -> "DynamicDiGraph":
        """A copy with every edge direction flipped."""
        g = DynamicDiGraph()
        for v in self._out:
            g.add_vertex(v)
        for u, v in self.edges():
            g.add_edge(v, u)
        return g

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return v in self._out

    def __len__(self) -> int:
        return len(self._out)

    def __repr__(self) -> str:
        return f"DynamicDiGraph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicDiGraph):
            return NotImplemented
        return (
            set(self._out) == set(other._out)
            and self._edge_set == other._edge_set
        )

    def __hash__(self) -> int:  # mutable container; identity hashing
        return id(self)
