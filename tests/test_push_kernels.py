"""A/B harness for the array-state guided search (tier-2 ``push_kernels``).

Three layers of equivalence, from contract to bitwise:

* **Verdicts** — the array path must answer every query exactly like the
  dict twin (and like plain BiBFS ground truth) across push styles x
  orders on random SBM and scale-free graphs. Push
  is not order-confluent, so visited/explored *sets* may differ between
  the lazy-heap twin and the sweep kernel — both are sound.
* **State** — a pure-Python model restating the kernel's sweep semantics
  step for step must reproduce the numpy kernel bitwise: residues,
  visited/explored flags, candidate list, counters, and meet verdicts.
* **Counters** — the shared counter contract (one push per vertex
  expansion, one edge access per adjacency entry gathered) makes dict and
  array totals *equal* whenever expansion order cannot differ (chains,
  stars); elsewhere only the units agree.

The dispatch tests pin the one substrate switch: ``use_kernels=False``,
a graph with no current snapshot, and a query whose version is frozen
only after it started all run every phase on the dict twins and enter
no kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bibfs import bibfs_is_reachable
from repro.core.array_search import ArraySearchContext, array_guided_search
from repro.core.guided import guided_search
from repro.core.ifca import IFCA
from repro.core.params import (
    ORDER_GREEDY,
    ORDER_LIFO,
    PUSH_BACKWARD,
    PUSH_FORWARD,
    IFCAParams,
)
from repro.core.state import SearchContext
from repro.core.stats import QueryStats
from repro.datasets.sbm import two_block_sbm
from repro.datasets.scale_free import preferential_attachment_graph
from repro.graph import kernels
from repro.graph.digraph import DynamicDiGraph
from repro.ppr.common import PushConfig
from repro.ppr.forward_push import forward_push
from repro.workloads.queries import generate_queries

from tests.oracles import power_iteration_ppr

pytestmark = pytest.mark.push_kernels

STYLES = [PUSH_FORWARD, PUSH_BACKWARD]
ORDERS = [ORDER_LIFO, ORDER_GREEDY]


# ----------------------------------------------------------------------
# Verdict equivalence: array path vs dict twin vs BiBFS ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("order", ORDERS)
def test_verdict_equivalence_grid(style, order):
    graphs = [
        two_block_sbm(120, 6.0, seed=3),
        preferential_attachment_graph(300, 3, seed=7, reciprocal=0.15),
    ]
    for graph in graphs:
        graph.csr()
        queries = generate_queries(graph, 40, seed=5)
        truth = [bibfs_is_reachable(graph, s, t) for s, t in queries]
        engines = {}
        for use_kernels in (False, True):
            params = IFCAParams(
                push_style=style,
                push_order=order,
                force_switch_round=3,
                use_kernels=use_kernels,
            )
            engines[use_kernels] = IFCA(graph, params)
        kernel_hits = 0
        for (s, t), want in zip(queries, truth):
            a_dict, st_dict = engines[False].query_with_stats(s, t)
            a_arr, st_arr = engines[True].query_with_stats(s, t)
            assert a_dict == want
            assert a_arr == want
            assert not st_dict.used_push_kernel and not st_dict.used_kernel
            kernel_hits += st_arr.used_push_kernel
        # Non-trivial queries must actually exercise the array path.
        assert kernel_hits > 0


def test_dispatch_requires_frozen_snapshot():
    graph = two_block_sbm(60, 5.0, seed=1)
    params = IFCAParams(force_switch_round=2)
    engine = IFCA(graph, params)
    s, t = 0, 30
    # No snapshot frozen: dict twin answers.
    _, st = engine.query_with_stats(s, t)
    assert not st.used_push_kernel
    # Frozen: array path engages.
    graph.csr()
    _, st = engine.query_with_stats(s, t)
    assert st.used_push_kernel
    # Mid-churn (stale snapshot): silently back to the dict twin.
    graph.add_edge(9001, 9002)
    _, st = engine.query_with_stats(s, t)
    assert not st.used_push_kernel


# ----------------------------------------------------------------------
# Bitwise state equivalence against a scalar model of the sweep kernel
# ----------------------------------------------------------------------
def _scalar_drain_model(
    offsets,
    targets,
    deg,
    opp_deg,
    cand,
    residue,
    visited,
    explored,
    other_visited,
    epsilon,
    alpha,
    forward_style,
    greedy,
    push_budget,
):
    """Pure-Python restatement of ``csr_push_drain`` (pre-contraction:
    identity remap, empty overlay). Must match the kernel bitwise."""
    one_minus_alpha = 1.0 - alpha
    pushes = edge_accesses = int_edges = explored_added = 0
    while True:
        cand = [v for v in cand if residue[v] > 0.0]
        if any(deg[v] == 0.0 for v in cand):
            for v in cand:
                if deg[v] == 0.0:
                    residue[v] = 0.0
                    if not explored[v]:
                        explored[v] = True
                        explored_added += 1
            cand = [v for v in cand if deg[v] != 0.0]

        if forward_style:
            frontier = [v for v in cand if residue[v] >= epsilon * deg[v]]
        else:
            frontier = [v for v in cand if residue[v] >= epsilon]
        if not frontier:
            break
        r_front = [residue[v] for v in frontier]
        deg_front = [deg[v] for v in frontier]
        if greedy:
            scores = (
                [r / d for r, d in zip(r_front, deg_front)]
                if forward_style
                else list(r_front)
            )
            cutoff = max(scores) / kernels.GREEDY_BUCKET
            picked = [s >= cutoff for s in scores]
            frontier = [v for v, p in zip(frontier, picked) if p]
            r_front = [r for r, p in zip(r_front, picked) if p]
            deg_front = [d for d, p in zip(deg_front, picked) if p]
        budget_stop = pushes + len(frontier) >= push_budget
        if budget_stop:
            take = max(push_budget - pushes, 0)
            if take == 0:
                break
            frontier = frontier[:take]
            r_front = r_front[:take]
            deg_front = deg_front[:take]
        pushes += len(frontier)

        new_mask = [not explored[v] for v in frontier]
        for v, fresh in zip(frontier, new_mask):
            if fresh:
                explored[v] = True
                explored_added += 1
        int_edges += int(sum(d for d, fresh in zip(deg_front, new_mask) if fresh))
        for v in frontier:
            residue[v] = 0.0

        edges = []
        for v, r in zip(frontier, r_front):
            for w in targets[offsets[v] : offsets[v + 1]]:
                edges.append((int(w), v, r))
        edge_accesses += len(edges)
        if not edges:
            if budget_stop:
                break
            continue
        edges = [(w, u, r) for (w, u, r) in edges if w != u]
        if not edges:
            if budget_stop:
                break
            continue

        unseen = [w for (w, _, _) in edges if not visited[w]]
        if unseen and any(other_visited[w] for w in unseen):
            return True, cand, pushes, edge_accesses, int_edges, explored_added
        for w in unseen:
            visited[w] = True

        for w, u, r in edges:
            if forward_style:
                residue[w] += one_minus_alpha * r / deg[u]
            else:
                residue[w] += one_minus_alpha * r / opp_deg[w]
        cand = sorted(set(cand) | {w for (w, _, _) in edges})
        if budget_stop:
            break

    return False, cand, pushes, edge_accesses, int_edges, explored_added


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_matches_scalar_model_bitwise(style, order, seed):
    graph = preferential_attachment_graph(150, 3, seed=seed, reciprocal=0.2)
    snapshot = graph.csr()
    n = snapshot.num_vertices
    forward_style = style == PUSH_FORWARD
    greedy = order == ORDER_GREEDY
    alpha = 0.1
    budget = 10_000

    out_deg = (snapshot.out_offsets[1:] - snapshot.out_offsets[:-1]).astype(
        np.float64
    )
    in_deg = (snapshot.in_offsets[1:] - snapshot.in_offsets[:-1]).astype(
        np.float64
    )
    si, ti = snapshot.index_of(0), snapshot.index_of(n - 1)

    # Kernel-side state (numpy) and model-side state (Python lists).
    k_state = {}
    m_state = {}
    for label, idx in (("fwd", si), ("rev", ti)):
        residue = np.zeros(n, dtype=np.float64)
        residue[idx] = 1.0
        visited = np.zeros(n, dtype=bool)
        visited[idx] = True
        k_state[label] = {
            "residue": residue,
            "visited": visited,
            "explored": np.zeros(n, dtype=bool),
            "cand": np.array([idx], dtype=np.int64),
        }
        m_state[label] = {
            "residue": [0.0] * n,
            "visited": [False] * n,
            "explored": [False] * n,
            "cand": [idx],
        }
        m_state[label]["residue"][idx] = 1.0
        m_state[label]["visited"][idx] = True

    offsets_of = {
        "fwd": (snapshot.out_offsets, snapshot.out_targets),
        "rev": (snapshot.in_offsets, snapshot.in_targets),
    }
    deg_of = {"fwd": out_deg, "rev": in_deg}
    opp_of = {
        "fwd": np.maximum(in_deg, 1.0),
        "rev": np.maximum(out_deg, 1.0),
    }

    epsilon = 0.01
    for _ in range(3):  # three shrinking-threshold rounds, both directions
        for label, other in (("fwd", "rev"), ("rev", "fwd")):
            offsets, targets = offsets_of[label]
            ks, ms = k_state[label], m_state[label]
            k_res = kernels.csr_push_drain(
                offsets,
                targets,
                deg_of[label],
                opp_of[label],
                None,
                np.empty(0, dtype=np.int64),
                n,
                ks["cand"],
                ks["residue"],
                ks["visited"],
                ks["explored"],
                k_state[other]["visited"],
                epsilon,
                alpha,
                forward_style,
                greedy,
                budget,
            )
            ks["cand"] = k_res[1]
            m_res = _scalar_drain_model(
                offsets.tolist(),
                targets.tolist(),
                deg_of[label].tolist(),
                opp_of[label].tolist(),
                ms["cand"],
                ms["residue"],
                ms["visited"],
                ms["explored"],
                m_state[other]["visited"],
                epsilon,
                alpha,
                forward_style,
                greedy,
                budget,
            )
            ms["cand"] = m_res[1]

            # met + all four counters identical
            assert k_res[0] == m_res[0]
            assert k_res[2:] == m_res[2:]
            # bitwise state equality
            assert ks["residue"].tolist() == ms["residue"]
            assert ks["visited"].tolist() == ms["visited"]
            assert ks["explored"].tolist() == ms["explored"]
            assert ks["cand"].tolist() == list(ms["cand"])
            if k_res[0]:
                return  # met: query over, states frozen at the meet point
        epsilon /= 10.0


# ----------------------------------------------------------------------
# Counter contract: dict and array totals equal when order cannot differ
# ----------------------------------------------------------------------
def _drain_pair(graph, style, order, source, target, epsilon):
    """One dict drain and one array drain from identical seeds; returns
    both QueryStats."""
    params = IFCAParams(
        push_style=style, push_order=order, use_cost_model=False
    ).resolve(graph)
    snapshot = graph.csr()
    d_ctx = SearchContext(graph, params, source, target)
    d_ctx.epsilon_cur = epsilon
    d_stats = QueryStats()
    guided_search(d_ctx, d_ctx.fwd, d_stats)

    a_ctx = ArraySearchContext(graph, snapshot, params, source, target)
    a_ctx.epsilon_cur = epsilon
    a_stats = QueryStats()
    array_guided_search(a_ctx, a_ctx.fwd, a_stats)
    return d_stats, a_stats


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("order", ORDERS)
def test_counter_contract_chain(style, order):
    # A directed chain has single-vertex frontiers: expansion order is
    # forced, so the shared units make the totals exactly equal.
    length = 12
    graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(length)])
    graph.add_vertex(500)  # unreachable target
    d_stats, a_stats = _drain_pair(graph, style, order, 0, 500, 1e-3)
    assert d_stats.push_operations == a_stats.push_operations > 0
    assert d_stats.guided_edge_accesses == a_stats.guided_edge_accesses > 0


@pytest.mark.parametrize("order", ORDERS)
def test_counter_contract_star(order):
    # Hub -> leaves: one expansion (k edge accesses), every leaf dangling.
    k = 20
    graph = DynamicDiGraph(edges=[(0, i) for i in range(1, k + 1)])
    graph.add_vertex(500)
    d_stats, a_stats = _drain_pair(graph, PUSH_FORWARD, order, 0, 500, 1e-3)
    assert d_stats.push_operations == a_stats.push_operations == 1
    assert d_stats.guided_edge_accesses == a_stats.guided_edge_accesses == k


# ----------------------------------------------------------------------
# Contraction parity: triggers and terminal outcomes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("order", ORDERS)
def test_contraction_exhaustion_parity(style, order):
    # A closed community (complete-ish digraph) with an unreachable
    # target: both twins must contract the explored community and prove
    # the negative by exhaustion.
    edges = [(i, j) for i in range(8) for j in range(8) if i != j]
    graph = DynamicDiGraph(edges=edges)
    graph.add_edge(100, 101)  # separate component holding the target
    graph.csr()
    results = {}
    for use_kernels in (False, True):
        params = IFCAParams(
            push_style=style,
            push_order=order,
            force_switch_round=50,
            use_kernels=use_kernels,
        )
        engine = IFCA(graph, params)
        answer, stats = engine.query_with_stats(0, 101)
        results[use_kernels] = (answer, stats)
    (a_dict, st_dict), (a_arr, st_arr) = results[False], results[True]
    assert a_dict is False and a_arr is False
    assert st_dict.terminated_by == st_arr.terminated_by == "exhausted"
    # The tiny in-cone of the target exhausts first, so the contraction
    # fires on whichever direction collapsed — parity on the totals.
    d_total = st_dict.contractions_forward + st_dict.contractions_reverse
    a_total = st_arr.contractions_forward + st_arr.contractions_reverse
    assert d_total > 0 and a_total > 0
    assert d_total == a_total
    assert st_arr.used_push_kernel and not st_dict.used_push_kernel


def test_contraction_meet_parity():
    # Two dense communities joined by a bridge: a positive query that
    # needs at least one contraction on the way. Both paths must prove it.
    edges = [(i, j) for i in range(6) for j in range(6) if i != j]
    edges += [(i + 10, j + 10) for i in range(6) for j in range(6) if i != j]
    edges.append((3, 13))
    graph = DynamicDiGraph(edges=edges)
    graph.csr()
    for use_kernels in (False, True):
        params = IFCAParams(force_switch_round=50, use_kernels=use_kernels)
        engine = IFCA(graph, params)
        answer, stats = engine.query_with_stats(0, 15)
        assert answer is True
        assert stats.used_push_kernel == use_kernels


# ----------------------------------------------------------------------
# Dispatch fallbacks
# ----------------------------------------------------------------------
def test_use_kernels_false_pins_every_phase_to_dicts():
    graph = two_block_sbm(60, 5.0, seed=1)
    graph.csr()
    params = IFCAParams(force_switch_round=2, use_kernels=False)
    engine = IFCA(graph, params)
    answer, stats = engine.query_with_stats(0, 30)
    assert not stats.used_push_kernel
    assert not stats.used_kernel
    assert answer == bibfs_is_reachable(graph, 0, 30)


def test_query_started_on_dicts_stays_on_dicts(monkeypatch):
    # The context is built with no snapshot, then another caller freezes
    # the version before the hand-off: the query must finish on the dict
    # twin it started on, entering no kernel.
    graph = two_block_sbm(60, 5.0, seed=1)
    make_context = IFCA._make_context

    def make_then_freeze(self, *args):
        ctx = make_context(self, *args)
        graph.csr()
        return ctx

    monkeypatch.setattr(IFCA, "_make_context", make_then_freeze)
    engine = IFCA(graph, IFCAParams(force_switch_round=2))
    entered = []
    previous = kernels.set_fault_hook(entered.append)
    try:
        answer, stats = engine.query_with_stats(0, 30)
    finally:
        kernels.set_fault_hook(previous)
    assert graph.csr(build=False) is not None
    assert stats.switched_to_bibfs
    assert not stats.used_push_kernel and not stats.used_kernel
    assert entered == []
    assert answer == bibfs_is_reachable(graph, 0, 30, use_kernels=False)


def test_unfrozen_graph_answers_on_dict_twin():
    # No snapshot is frozen, so every query runs the pure-dict leg.
    graph = preferential_attachment_graph(200, 3, seed=11, reciprocal=0.2)
    queries = generate_queries(graph, 30, seed=2)
    engine = IFCA(graph, IFCAParams(force_switch_round=3))
    for s, t in queries:
        answer, stats = engine.query_with_stats(s, t)
        assert not stats.used_push_kernel and not stats.used_kernel
        assert answer == bibfs_is_reachable(graph, s, t, use_kernels=False)
    assert graph.csr(build=False) is None


# ----------------------------------------------------------------------
# PPR push drains: kernel vs scalar residue equivalence
# ----------------------------------------------------------------------
def test_ppr_kernel_quiescence_and_mass():
    graph = two_block_sbm(80, 5.0, seed=4)
    config = PushConfig(alpha=0.15, epsilon=1e-5)
    graph.csr()
    state = forward_push(graph, 0, config)
    # Quiescence: no vertex is still pushable.
    for v, r in state.residue.items():
        d = graph.out_degree(v)
        assert d > 0 and r / d < config.epsilon
    mass = sum(state.reserve.values()) + sum(state.residue.values())
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_ppr_kernel_close_to_scalar():
    # Push order differs (sweeps vs worklist), so reserves agree only up
    # to the algorithm's own epsilon-scale tolerance — per-vertex, the
    # leftover-residue invariant bounds the gap.
    graph = preferential_attachment_graph(150, 3, seed=9, reciprocal=0.2)
    config = PushConfig(alpha=0.1, epsilon=1e-6)
    scalar = forward_push(graph, 0, config)
    graph.csr()
    kernel = forward_push(graph, 0, config)
    keys = set(scalar.reserve) | set(kernel.reserve)
    worst = max(
        abs(scalar.reserve.get(v, 0.0) - kernel.reserve.get(v, 0.0))
        for v in keys
    )
    assert worst < 100 * config.epsilon


def test_ppr_kernel_invariant_vs_power_iteration():
    graph = two_block_sbm(40, 4.0, seed=6)
    config = PushConfig(alpha=0.2, epsilon=1e-8)
    graph.csr()
    state = forward_push(graph, 0, config)
    exact = power_iteration_ppr(graph, 0, alpha=config.alpha)
    for v in graph.vertices():
        reserve = state.reserve.get(v, 0.0)
        # Reserves underestimate the true PPR, and the total shortfall is
        # bounded by the residual mass still in flight.
        assert reserve <= exact.get(v, 0.0) + 1e-9
    shortfall = sum(exact.values()) - sum(state.reserve.values())
    assert shortfall <= sum(state.residue.values()) + 1e-9


def test_ppr_kernel_resumable():
    graph = two_block_sbm(60, 5.0, seed=8)
    graph.csr()
    coarse = PushConfig(alpha=0.1, epsilon=1e-3)
    fine = PushConfig(alpha=0.1, epsilon=1e-6)
    resumed = forward_push(graph, 0, coarse)
    resumed = forward_push(graph, 0, fine, state=resumed)
    fresh = forward_push(graph, 0, fine)
    keys = set(resumed.reserve) | set(fresh.reserve)
    worst = max(
        abs(resumed.reserve.get(v, 0.0) - fresh.reserve.get(v, 0.0))
        for v in keys
    )
    assert worst < 100 * fine.epsilon
    # The resumed run keeps cumulative counters.
    assert resumed.push_operations > 0
    assert resumed.edge_accesses > 0


def test_ppr_kernel_budget_resumes():
    graph = two_block_sbm(60, 5.0, seed=8)
    graph.csr()
    config = PushConfig(alpha=0.1, epsilon=1e-6)
    state = forward_push(graph, 0, config, max_operations=5)
    assert state.push_operations >= 5  # sweeps may overshoot by < one sweep
    first = state.push_operations
    # Budget already consumed: an equal budget re-invocation is a no-op.
    state = forward_push(graph, 0, config, state=state, max_operations=first)
    assert state.push_operations == first
    # Raising the budget resumes toward quiescence.
    state = forward_push(graph, 0, config, state=state)
    for v, r in state.residue.items():
        d = graph.out_degree(v)
        assert d > 0 and r / d < config.epsilon


# ----------------------------------------------------------------------
# Service integration: the push_kernel_queries counter
# ----------------------------------------------------------------------
def test_service_counts_push_kernel_queries():
    from repro.service.engine import ReachabilityService

    edges = [(i, j) for i in range(8) for j in range(8) if i != j]
    graph = DynamicDiGraph(edges=edges)
    graph.add_edge(100, 101)
    with ReachabilityService(graph) as service:
        # Force the engine stage to take guided rounds on the array path.
        service.method.engine.params = IFCAParams(force_switch_round=50)
        graph.csr()
        answer, detail = service._run_engine(service.method, 0, 101, None)
        assert answer is False and detail == "exhausted"
        counters = service.stats()["counters"]
        assert counters.get("push_kernel_queries", 0) == 1
