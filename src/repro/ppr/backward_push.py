"""Backward push (Andersen et al. — WAW 2007, "contributions").

Approximates the *contribution* vector of a target ``t``: for every vertex
``v``, ``reserve(v)`` estimates ``ppr_v(t)``. Each step takes a vertex
``u`` with ``r(u) >= epsilon`` and distributes ``(1 - alpha) * r(u) /
d_out(v)`` to each in-neighbor ``v`` (so, per the paper's framing, the
neighbor weight is the *receiver-side* out-degree and ``f_norm = 1``).

The invariant (checked in tests)::

    ppr_v(t) = reserve(v) + sum_w residue(w) * ppr_v(w)

and the guarantee used by the paper's lower bound on ``k_f`` (Eq. 3)::

    ppr_v(t) - reserve(v) <= epsilon   for every v.
"""

from __future__ import annotations

from typing import Optional

from repro.graph import kernels
from repro.graph.digraph import DynamicDiGraph
from repro.ppr.common import PushConfig, PushState, Worklist, state_from_arrays, state_to_arrays


def backward_push(
    graph: DynamicDiGraph,
    target: int,
    config: Optional[PushConfig] = None,
    state: Optional[PushState] = None,
    max_operations: Optional[int] = None,
) -> PushState:
    """Run backward push toward ``target`` until no vertex is pushable.

    As with forward push, re-invoking with a smaller epsilon resumes the
    computation, and the drain dispatches to
    :func:`repro.graph.kernels.csr_backward_push_drain` when a
    current-version snapshot is frozen (the scalar worklist loop stays
    authoritative and serves graphs with no current snapshot).
    """
    if config is None:
        config = PushConfig()
    if target not in graph:
        raise KeyError(f"target vertex {target} not in graph")
    if state is None:
        state = PushState.indicator(target)
    alpha, epsilon = config.alpha, config.epsilon

    snapshot = graph.csr(build=False)
    if snapshot is not None:
        budget = (
            None
            if max_operations is None
            else max_operations - state.push_operations
        )
        if budget is None or budget > 0:
            residue, reserve = state_to_arrays(state, snapshot)
            out_deg = (
                snapshot.out_offsets[1:] - snapshot.out_offsets[:-1]
            ).astype(kernels.np.float64)
            pushes, accesses = kernels.csr_backward_push_drain(
                snapshot.in_offsets,
                snapshot.in_targets,
                out_deg,
                residue,
                reserve,
                alpha,
                epsilon,
                budget,
            )
            state_from_arrays(state, snapshot, residue, reserve)
            state.push_operations += pushes
            state.edge_accesses += accesses
        return state

    work = Worklist()
    for v, r in state.residue.items():
        if r >= epsilon:
            work.push(v)

    while work:
        if max_operations is not None and state.push_operations >= max_operations:
            break
        u = work.pop()
        r_u = state.residue.get(u, 0.0)
        if r_u < epsilon:
            continue
        state.push_operations += 1
        state.reserve[u] = state.reserve.get(u, 0.0) + alpha * r_u
        state.residue[u] = 0.0
        coeff = 1.0 - alpha
        for v in graph.in_neighbors(u):
            state.edge_accesses += 1
            share = coeff * r_u / graph.out_degree(v)
            new_r = state.residue.get(v, 0.0) + share
            state.residue[v] = new_r
            if new_r >= epsilon:
                work.push(v)
    return state
