"""Andersen–Chung–Lang sweep cut over a PPR vector.

The theoretical bridge the paper leans on (Sec. IV): "the set of vertices
with sufficiently large PPR concerning a source vertex can be defined as
the community around it, since such a set provably has low conductance".
The sweep orders vertices by degree-normalized PPR and returns the prefix
with the lowest conductance.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.graph import kernels
from repro.graph.digraph import DynamicDiGraph


def sweep_cut(
    graph: DynamicDiGraph,
    ppr: Dict[int, float],
    max_size: int = 0,
) -> Tuple[Set[int], float]:
    """The best-conductance prefix of the PPR sweep order.

    When a current-version CSR snapshot is frozen, the whole sweep —
    degree-normalized ranking, volume prefix sums, and the incremental
    boundary bookkeeping — runs as batched numpy scans
    (:func:`repro.graph.kernels.csr_sweep_cut`); otherwise the dict walk
    below runs. Both return the identical cut.

    Parameters
    ----------
    graph:
        The graph the PPR vector was computed on.
    ppr:
        A (possibly approximate) PPR vector, e.g. push reserves.
    max_size:
        Optional cap on the prefix length; 0 means no cap.

    Returns
    -------
    (community, phi):
        The vertex set with the lowest conductance seen along the sweep and
        that conductance. Returns ``(set(), 1.0)`` for an empty vector.
    """
    snapshot = graph.csr(build=False)
    if snapshot is not None:
        return kernels.csr_sweep_cut(snapshot, ppr, max_size)
    ranked = [
        (value / max(graph.degree(v), 1), v)
        for v, value in ppr.items()
        if value > 0 and v in graph
    ]
    if not ranked:
        return set(), 1.0
    ranked.sort(reverse=True)
    limit = len(ranked) if max_size <= 0 else min(max_size, len(ranked))

    # Incremental conductance maintenance along the sweep: track vol(S) and
    # |theta(S)| as each vertex joins, O(vol) total instead of O(k * m).
    two_m = 2 * graph.num_edges
    in_set: Set[int] = set()
    vol = 0
    boundary = 0
    best_set: List[int] = []
    best_phi = 1.0
    prefix: List[int] = []
    for _, v in ranked[:limit]:
        prefix.append(v)
        in_set.add(v)
        vol += graph.degree(v)
        # Out-edges of v leaving S become boundary edges.
        for w in graph.out_neighbors(v):
            if w not in in_set:
                boundary += 1
        # In-edges of v from inside S stop being boundary edges.
        for w in graph.in_neighbors(v):
            if w in in_set and w != v:
                boundary -= 1
        denom = min(vol, two_m - vol)
        phi = boundary / denom if denom > 0 else 1.0
        if phi < best_phi:
            best_phi = phi
            best_set = list(prefix)
    return set(best_set), best_phi
