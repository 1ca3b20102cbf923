"""Tests for the PPR substrate: forward push against the power-iteration
oracle — including the invariants the paper's machinery relies on."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph
from repro.ppr.common import PushConfig, PushState, Worklist
from repro.ppr.forward_push import forward_push

from tests.conftest import random_graph
from tests.oracles import power_iteration_ppr


class TestPushConfig:
    def test_defaults(self):
        config = PushConfig()
        assert 0 < config.alpha < 1

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError):
            PushConfig(alpha=alpha)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            PushConfig(epsilon=0)


class TestWorklist:
    def test_fifo_dedup(self):
        w = Worklist()
        w.push(1)
        w.push(1)
        assert len(w) == 1
        assert w.pop() == 1
        assert not w

    def test_reinsert_after_pop(self):
        w = Worklist()
        w.push(1)
        w.pop()
        w.push(1)
        assert 1 in w


class TestPowerIteration:
    def test_sums_to_one(self, cycle_graph):
        ppr = power_iteration_ppr(cycle_graph, 0, alpha=0.2)
        assert sum(ppr.values()) == pytest.approx(1.0, abs=1e-9)

    def test_single_vertex(self):
        g = DynamicDiGraph(vertices=[0])
        ppr = power_iteration_ppr(g, 0)
        assert ppr[0] == pytest.approx(1.0)

    def test_dangling_absorbs(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        ppr = power_iteration_ppr(g, 0, alpha=0.5)
        # Walk halts at 0 w.p. 0.5, else moves to 1 and halts there.
        assert ppr[0] == pytest.approx(0.5, abs=1e-9)
        assert ppr[1] == pytest.approx(0.5, abs=1e-9)

    def test_zero_for_unreachable(self, line_graph):
        ppr = power_iteration_ppr(line_graph, 2)
        assert 0 not in ppr or ppr.get(0, 0.0) == 0.0

    def test_closed_form_two_cycle(self):
        # 0 <-> 1: ppr_0(0) solves p = a + (1-a)^2 p.
        g = DynamicDiGraph(edges=[(0, 1), (1, 0)])
        alpha = 0.3
        ppr = power_iteration_ppr(g, 0, alpha=alpha)
        expected = alpha / (1 - (1 - alpha) ** 2)
        assert ppr[0] == pytest.approx(expected, abs=1e-9)

    def test_invalid_inputs(self, line_graph):
        with pytest.raises(KeyError):
            power_iteration_ppr(line_graph, 99)
        with pytest.raises(ValueError):
            power_iteration_ppr(line_graph, 0, alpha=1.5)


class TestForwardPush:
    def test_mass_conservation(self, sbm_small):
        state = forward_push(sbm_small, 0, PushConfig(alpha=0.2, epsilon=1e-4))
        total = sum(state.residue.values()) + sum(state.reserve.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_reserve_underestimates_ppr(self, sbm_small):
        exact = power_iteration_ppr(sbm_small, 0, alpha=0.2)
        state = forward_push(sbm_small, 0, PushConfig(alpha=0.2, epsilon=1e-3))
        for v, reserve in state.reserve.items():
            assert reserve <= exact.get(v, 0.0) + 1e-9

    def test_invariant_ppr_decomposition(self):
        """ppr_s(t) = reserve(t) + sum_v residue(v) * ppr_v(t)."""
        g = random_graph(12, 30, seed=4)
        source = next(iter(g.vertices()))
        alpha = 0.25
        state = forward_push(g, source, PushConfig(alpha=alpha, epsilon=5e-2))
        exact_from = {
            v: power_iteration_ppr(g, v, alpha=alpha) for v in g.vertices()
        }
        for t in g.vertices():
            reconstructed = state.reserve.get(t, 0.0) + sum(
                r * exact_from[v].get(t, 0.0)
                for v, r in state.residue.items()
                if r > 0
            )
            assert reconstructed == pytest.approx(
                exact_from[source].get(t, 0.0), abs=1e-6
            )

    def test_smaller_epsilon_converges_to_exact(self, cycle_graph):
        exact = power_iteration_ppr(cycle_graph, 0, alpha=0.15)
        state = forward_push(cycle_graph, 0, PushConfig(alpha=0.15, epsilon=1e-9))
        for v, value in exact.items():
            assert state.reserve.get(v, 0.0) == pytest.approx(value, abs=1e-6)

    def test_resumable_with_smaller_epsilon(self, sbm_small):
        cfg1 = PushConfig(alpha=0.2, epsilon=1e-2)
        cfg2 = PushConfig(alpha=0.2, epsilon=1e-4)
        resumed = forward_push(sbm_small, 0, cfg1)
        resumed = forward_push(sbm_small, 0, cfg2, state=resumed)
        fresh = forward_push(sbm_small, 0, cfg2)
        # Same termination criterion: residues all below epsilon * d_out.
        for v, r in resumed.residue.items():
            d = sbm_small.out_degree(v)
            if d:
                assert r / d < cfg2.epsilon
        assert sum(resumed.reserve.values()) == pytest.approx(
            sum(fresh.reserve.values()), rel=0.05
        )

    def test_termination_bound(self, sbm_small):
        """Lemma 1: O(1/(alpha * epsilon)) edge accesses."""
        alpha, epsilon = 0.2, 1e-3
        state = forward_push(sbm_small, 0, PushConfig(alpha=alpha, epsilon=epsilon))
        assert state.edge_accesses <= 1.0 / (alpha * epsilon)

    def test_missing_source(self, sbm_small):
        with pytest.raises(KeyError):
            forward_push(sbm_small, 10**9)

    def test_max_operations_cap(self, sbm_small):
        state = forward_push(
            sbm_small, 0, PushConfig(epsilon=1e-9), max_operations=5
        )
        assert state.push_operations <= 5

    def test_self_loop_keeps_share(self):
        g = DynamicDiGraph(edges=[(0, 0), (0, 1)])
        state = forward_push(g, 0, PushConfig(alpha=0.5, epsilon=1e-8))
        total = sum(state.residue.values()) + sum(state.reserve.values())
        assert total == pytest.approx(1.0, abs=1e-9)


class TestProperty1:
    """Property 1: s -> t iff ppr_s(t) > 0 (with exact PPR)."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_property_positive_ppr_iff_reachable(self, seed):
        from repro.graph.traversal import is_reachable_bfs

        g = random_graph(10, 20, seed)
        vs = list(g.vertices())
        s, t = vs[0], vs[-1]
        ppr = power_iteration_ppr(g, s, alpha=0.2, tolerance=1e-15)
        if is_reachable_bfs(g, s, t):
            assert ppr.get(t, 0.0) > 0
        else:
            assert ppr.get(t, 0.0) == pytest.approx(0.0, abs=1e-12)
