"""Slow, obviously-correct references the tests compare against.

None of these has a caller outside the tests, so they live here rather
than under ``src/``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Set

from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import strongly_connected_components
from repro.graph.snapshot import CSRSnapshot


def power_iteration_ppr(
    graph: DynamicDiGraph,
    source: int,
    alpha: float = 0.1,
    tolerance: float = 1e-12,
    max_iterations: int = 10_000,
) -> Dict[int, float]:
    """The PPR vector of ``source`` to within ``tolerance`` (L1).

    Iterates ``ppr = alpha * chi_s + (1 - alpha) * ppr @ M``, the defining
    fixed-point equation of Sec. III-A, at O(m) per iteration. Dangling
    vertices keep their mass (the walk halts there), matching the
    random-walk semantics the rest of the package uses.
    """
    if source not in graph:
        raise KeyError(f"source vertex {source} not in graph")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    # Propagate residue mass level by level instead of dense vectors: this
    # is the power-iteration/forward-push equivalence (Wu et al., 2021)
    # with a zero threshold and a hard iteration cap.
    ppr: Dict[int, float] = {}
    residue: Dict[int, float] = {source: 1.0}
    for _ in range(max_iterations):
        next_residue: Dict[int, float] = {}
        change = 0.0
        for v, r in residue.items():
            ppr[v] = ppr.get(v, 0.0) + alpha * r
            out = graph.out_neighbors(v)
            if not out:
                ppr[v] += (1.0 - alpha) * r  # dangling: walk halts here
                continue
            share = (1.0 - alpha) * r / len(out)
            for w in out:
                next_residue[w] = next_residue.get(w, 0.0) + share
        residue = next_residue
        change = sum(residue.values())
        if change < tolerance:
            break
    return ppr


def read_edge_list_by_line(path) -> DynamicDiGraph:
    """The edge list read one text line and one ``add_edge`` at a time:
    the graph and the ``FILE:LINE`` errors
    :func:`repro.graph.io.read_edge_list` must reproduce."""
    graph = DynamicDiGraph()
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.replace(",", " ").split()
            try:
                u, v = int(parts[0]), int(parts[1])
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v', got {line!r}"
                ) from None
            graph.add_edge(u, v)
    return graph


def assert_same_build(got: DynamicDiGraph, want: DynamicDiGraph) -> None:
    """Equal vertex order, adjacency order, edge set and version."""
    assert list(got.vertices()) == list(want.vertices())
    for v in want.vertices():
        assert got.out_neighbors(v) == want.out_neighbors(v), v
        assert got.in_neighbors(v) == want.in_neighbors(v), v
    assert got == want
    assert (got.num_edges, got.version) == (want.num_edges, want.version)


def choose_supportive_by_sort(
    graph: DynamicDiGraph, count: int, rng: random.Random
) -> List[int]:
    """Supportive vertices as a full degree sort picks them: the list
    :func:`repro.service.fastpath._choose_supportive` must return."""
    vertices = [v for v in graph.vertices() if graph.degree(v) > 0]
    if not vertices or count <= 0:
        return []
    count = min(count, len(vertices))
    by_degree = sorted(vertices, key=lambda v: (-graph.degree(v), v))
    chosen = by_degree[: (count + 1) // 2]
    rest = [v for v in vertices if v not in set(chosen)]
    rng.shuffle(rest)
    chosen.extend(rest[: count - len(chosen)])
    return chosen


def subgraph(graph: DynamicDiGraph, vertices: Iterable[int]) -> DynamicDiGraph:
    """The subgraph of ``graph`` induced by ``vertices``."""
    keep = {v for v in vertices if v in graph}
    sub = DynamicDiGraph(vertices=keep)
    for u in keep:
        for v in graph.out_neighbors(u):
            if v in keep:
                sub.add_edge(u, v)
    return sub


def thaw(snapshot: CSRSnapshot) -> DynamicDiGraph:
    """The mutable graph a frozen snapshot describes."""
    ids = snapshot.vertex_ids
    graph = DynamicDiGraph(vertices=(int(v) for v in ids))
    for i in range(snapshot.num_vertices):
        u = int(ids[i])
        for k in range(int(snapshot.out_offsets[i]), int(snapshot.out_offsets[i + 1])):
            graph.add_edge(u, int(ids[snapshot.out_targets[k]]))
    return graph


def is_dag(graph: DynamicDiGraph) -> bool:
    """True iff every SCC is a singleton without a self-loop."""
    return all(
        len(comp) == 1 and not graph.has_edge(comp[0], comp[0])
        for comp in strongly_connected_components(graph)
    )


def volume(graph: DynamicDiGraph, vertex_set: Iterable[int]) -> int:
    """``vol(S) = sum_{v in S} (d_out(v) + d_in(v))``."""
    return sum(graph.degree(v) for v in vertex_set)


def external_edges(graph: DynamicDiGraph, vertex_set: Set[int]) -> int:
    """``|theta(S)|``: the number of edges from inside ``S`` to outside."""
    return sum(
        1 for u in vertex_set for v in graph.out_neighbors(u) if v not in vertex_set
    )


def conductance(graph: DynamicDiGraph, vertex_set: Iterable[int]) -> float:
    """The directed conductance of Sec. V-C, straight from its definition::

        Phi(S) = |theta(S)| / min(vol(S), 2m - vol(S))

    An empty set, a set covering all volume, or an isolated set has
    conductance 1.0 (the worst value), as the sweep cut treats them.
    """
    s = set(vertex_set)
    if not s:
        return 1.0
    vol_s = volume(graph, s)
    denominator = min(vol_s, 2 * graph.num_edges - vol_s)
    if denominator <= 0:
        return 1.0
    return external_edges(graph, s) / denominator
