"""Strongly connected components and condensation.

The index-based competitors (TOL, IP, DAGGER) all operate on the DAG
obtained by condensing the graph's SCCs (Sec. II). Tarjan's algorithm is
implemented iteratively so that deep graphs do not hit Python's recursion
limit.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import DynamicDiGraph


def strongly_connected_components(
    graph: DynamicDiGraph, within: Optional[Collection[int]] = None
) -> List[List[int]]:
    """Tarjan's SCC algorithm, iterative formulation.

    Returns the components in reverse topological order of the condensation
    (a property of Tarjan's algorithm that :func:`condensation` relies on).

    ``within`` restricts the run to the subgraph induced by that vertex
    set (a ``set`` for O(1) membership; every member must be in the
    graph): only its vertices are roots and edges leaving it are ignored,
    so the cost is the induced subgraph's size and nothing is copied.
    """
    adj = graph.adjacency(True)
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in list(adj if within is None else within):
        if root in index_of:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        # Each work item is (vertex, iterator over its unscanned out-edges).
        work: List[Tuple[int, Iterator[int]]] = [(root, iter(adj[root]))]
        while work:
            v, nbrs = work[-1]
            low = lowlink[v]
            for w in nbrs:
                if w not in index_of:
                    if within is not None and w not in within:
                        continue
                    lowlink[v] = low
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack and index_of[w] < low:
                    low = index_of[w]
            else:
                work.pop()
                lowlink[v] = low
                if low == index_of[v]:
                    component: List[int] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
    return components


def condensation(
    graph: DynamicDiGraph,
) -> Tuple[DynamicDiGraph, Dict[int, int], List[List[int]]]:
    """Condense SCCs into a DAG.

    Returns ``(dag, scc_of, components)`` where ``scc_of[v]`` maps each
    original vertex to its component id and ``components[cid]`` lists the
    members of component ``cid``. The DAG is simple: parallel inter-SCC
    edges collapse into one.
    """
    components = strongly_connected_components(graph)
    scc_of: Dict[int, int] = {}
    for cid, comp in enumerate(components):
        for v in comp:
            scc_of[v] = cid
    dag = DynamicDiGraph()
    for cid in range(len(components)):
        dag.add_vertex(cid)
    for u, v in graph.edges():
        cu, cv = scc_of[u], scc_of[v]
        if cu != cv:
            dag.add_edge(cu, cv)
    return dag, scc_of, components
