"""Component-level tests for the IFCA internals: params, state, guided
search, contraction, frontier BiBFS, cost model, and the Alg. 1 baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import (
    baseline_precision,
    push_reachability,
    tune_epsilon_for_precision,
)
from repro.core.bibfs import frontier_bibfs
from repro.core.contraction import ContractionOutcome, community_contraction
from repro.core.cost import CostModel
from repro.core.guided import guided_search
from repro.core.params import IFCAParams, ResolvedParams
from repro.core.state import SUPER_FORWARD, SUPER_REVERSE, SearchContext
from repro.core.stats import QueryStats
from repro.datasets.sbm import two_block_sbm
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs

from tests.conftest import random_graph


def make_ctx(graph, source, target, **overrides):
    params = IFCAParams(**overrides).resolve(graph)
    return SearchContext(graph, params, source, target)


class TestParams:
    def test_defaults_resolve(self):
        g = DynamicDiGraph(edges=[(i, i + 1) for i in range(100)])
        resolved = IFCAParams().resolve(g)
        assert resolved.epsilon_pre == pytest.approx(1.0)
        assert resolved.epsilon_init == pytest.approx(100.0)

    def test_empty_graph_resolution(self):
        resolved = IFCAParams().resolve(DynamicDiGraph())
        assert resolved.epsilon_pre == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"step": 1.0},
            {"push_style": "sideways"},
            {"push_order": "random"},
            {"epsilon_pre": -1.0},
            {"epsilon_init": 0.0},
            {"lambda_ratio": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IFCAParams(**kwargs)

    def test_init_below_pre_rejected_at_resolve(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        with pytest.raises(ValueError):
            IFCAParams(epsilon_pre=1e-2, epsilon_init=1e-3).resolve(g)

    def test_with_overrides(self):
        p = IFCAParams().with_overrides(alpha=0.3)
        assert p.alpha == 0.3
        assert IFCAParams().alpha == 0.1  # original untouched


class TestStats:
    def test_totals(self):
        stats = QueryStats(guided_edge_accesses=5, bibfs_edge_accesses=7)
        assert stats.edge_accesses == 12


class TestSearchContext:
    def test_initial_state(self, line_graph):
        ctx = make_ctx(line_graph, 0, 4)
        assert ctx.fwd.residue == {0: 1.0}
        assert ctx.rev.residue == {4: 1.0}
        assert ctx.fwd.visited == {0}
        assert ctx.rev.visited == {4}
        assert ctx.n_reduced == 5
        assert ctx.m_reduced == 4

    def test_resolve_identity_without_contraction(self, line_graph):
        ctx = make_ctx(line_graph, 0, 4)
        assert ctx.resolve(3) == 3

    def test_frontier_is_visited_minus_explored(self, line_graph):
        ctx = make_ctx(line_graph, 0, 4)
        ctx.fwd.visited.update({0, 1, 2})
        ctx.fwd.explored.update({0, 1})
        assert set(ctx.frontier(ctx.fwd)) == {2}


class TestGuidedSearch:
    def test_meets_on_short_path(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        ctx = make_ctx(g, 0, 2, epsilon_pre=1e-4, epsilon_init=1e-4)
        ctx.epsilon_cur = 1e-4
        assert guided_search(ctx, ctx.fwd, QueryStats())

    def test_no_meet_when_unreachable(self):
        g = DynamicDiGraph(edges=[(0, 1), (3, 2)])
        ctx = make_ctx(g, 0, 2, epsilon_pre=1e-6, epsilon_init=1e-6)
        ctx.epsilon_cur = 1e-6
        stats = QueryStats()
        assert not guided_search(ctx, ctx.fwd, stats)
        assert not guided_search(ctx, ctx.rev, stats)

    def test_high_threshold_pushes_nothing(self, sbm_small):
        ctx = make_ctx(sbm_small, 0, 1)
        ctx.epsilon_cur = 10.0  # nothing can satisfy r/d >= 10
        stats = QueryStats()
        guided_search(ctx, ctx.fwd, stats)
        assert stats.push_operations == 0

    def test_dangling_marked_explored(self):
        g = DynamicDiGraph(edges=[(1, 0)])  # 0 has no out-edges
        ctx = make_ctx(g, 0, 1, epsilon_pre=1e-3, epsilon_init=1e-3)
        ctx.epsilon_cur = 1e-3
        guided_search(ctx, ctx.fwd, QueryStats())
        assert 0 in ctx.fwd.explored
        assert ctx.fwd.residue[0] == 0.0

    def test_edge_access_bound(self, sbm_small):
        """Lemma 1: a full drain costs at most 1/(alpha * epsilon)."""
        alpha, eps = 0.2, 1e-3
        ctx = make_ctx(
            sbm_small, 0, 1, alpha=alpha, epsilon_pre=eps, epsilon_init=eps
        )
        ctx.epsilon_cur = eps
        stats = QueryStats()
        guided_search(ctx, ctx.fwd, stats)
        assert stats.guided_edge_accesses <= 1 / (alpha * eps)

    def test_backward_style_meets(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        ctx = make_ctx(
            g, 0, 2, push_style="backward", epsilon_pre=1e-5, epsilon_init=1e-5
        )
        ctx.epsilon_cur = 1e-5
        assert guided_search(ctx, ctx.fwd, QueryStats())


class TestContraction:
    def _drained_ctx(self, graph, s, t, eps=1e-4):
        ctx = make_ctx(
            graph, s, t, use_cost_model=False, epsilon_pre=1e-2, epsilon_init=1e-2
        )
        ctx.epsilon_cur = eps
        guided_search(ctx, ctx.fwd, QueryStats())
        return ctx

    def test_not_triggered_above_epsilon_pre(self, cycle_graph):
        ctx = self._drained_ctx(cycle_graph, 0, 3)
        ctx.epsilon_cur = 1.0  # above epsilon_pre
        outcome = community_contraction(ctx, ctx.fwd, QueryStats())
        assert outcome is ContractionOutcome.NOT_TRIGGERED

    def test_not_triggered_without_exploration(self, cycle_graph):
        ctx = make_ctx(cycle_graph, 0, 3, epsilon_pre=1e-2, epsilon_init=1e-2)
        ctx.epsilon_cur = 1e-9  # below epsilon_pre but nothing explored
        outcome = community_contraction(ctx, ctx.fwd, QueryStats())
        assert outcome is ContractionOutcome.NOT_TRIGGERED

    def test_contraction_builds_super_vertex(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 0), (1, 2)])
        ctx = self._drained_ctx(g, 0, 2)
        stats = QueryStats()
        outcome = community_contraction(ctx, ctx.fwd, stats)
        assert outcome in (ContractionOutcome.CONTRACTED, ContractionOutcome.MEET)
        assert ctx.fwd.has_super
        assert ctx.fwd.super_id == SUPER_FORWARD
        assert ctx.fwd.residue[SUPER_FORWARD] == 1.0
        assert not ctx.fwd.explored  # cleared after contraction
        assert ctx.fwd.int_edges == 0
        assert ctx.epsilon_cur == ctx.params.epsilon_init

    def test_exhaustion_detected(self):
        """A source whose entire out-cone is explored yields EXHAUSTED."""
        g = DynamicDiGraph(edges=[(0, 1), (1, 0)])
        g.add_vertex(2)
        ctx = self._drained_ctx(g, 0, 2, eps=1e-9)
        # Drain repeatedly until residues die out inside the 2-cycle.
        for _ in range(5):
            guided_search(ctx, ctx.fwd, QueryStats())
        outcome = community_contraction(ctx, ctx.fwd, QueryStats())
        assert outcome in (
            ContractionOutcome.EXHAUSTED,
            ContractionOutcome.CONTRACTED,
        )
        if outcome is ContractionOutcome.CONTRACTED:
            # One more round must exhaust: the super-vertex has no frontier.
            guided_search(ctx, ctx.fwd, QueryStats())
            outcome = community_contraction(ctx, ctx.fwd, QueryStats())
            assert outcome is ContractionOutcome.EXHAUSTED

    def test_reduced_counters_shrink(self, sbm_small):
        ctx = self._drained_ctx(sbm_small, 0, 1)
        n_before, m_before = ctx.n_reduced, ctx.m_reduced
        outcome = community_contraction(ctx, ctx.fwd, QueryStats())
        if outcome is ContractionOutcome.CONTRACTED:
            assert ctx.n_reduced <= n_before + 1  # +1 super, minus merged
            assert ctx.m_reduced <= m_before

    def test_reverse_direction_super(self):
        g = DynamicDiGraph(edges=[(0, 1), (2, 1), (1, 2)])
        ctx = make_ctx(
            g, 0, 1, use_cost_model=False, epsilon_pre=1e-2, epsilon_init=1e-2
        )
        ctx.epsilon_cur = 1e-5
        guided_search(ctx, ctx.rev, QueryStats())
        outcome = community_contraction(ctx, ctx.rev, QueryStats())
        if outcome is not ContractionOutcome.NOT_TRIGGERED:
            assert ctx.rev.super_id == SUPER_REVERSE


class TestFrontierBiBFS:
    def test_plain_bidirectional(self, line_graph):
        ctx = make_ctx(line_graph, 0, 4)
        assert frontier_bibfs(ctx, [0], [4], QueryStats())

    def test_negative(self, disconnected_graph):
        ctx = make_ctx(disconnected_graph, 0, 10)
        assert not frontier_bibfs(ctx, [0], [10], QueryStats())

    def test_empty_frontiers(self, line_graph):
        ctx = make_ctx(line_graph, 0, 4)
        assert not frontier_bibfs(ctx, [], [], QueryStats())

    def test_counts_accesses(self, line_graph):
        ctx = make_ctx(line_graph, 0, 4)
        stats = QueryStats()
        frontier_bibfs(ctx, [0], [4], stats)
        assert stats.bibfs_edge_accesses > 0


class TestCostModel:
    def _model(self, graph, **overrides):
        params = IFCAParams(**overrides).resolve(graph)
        return CostModel(graph, params), params

    def test_bounds_ordering(self, sbm_small):
        model, _ = self._model(sbm_small)
        n = sbm_small.num_vertices
        assert 1.0 <= model.k_upper_bound(n) <= n

    def test_fixed_beta_honored(self, sbm_small):
        params = IFCAParams().resolve(sbm_small)
        assert CostModel(sbm_small, params, beta=0.42).beta == 0.42

    def test_estimate_fields(self, sbm_small):
        model, params = self._model(sbm_small)
        ctx = SearchContext(sbm_small, params, 0, 1)
        estimate = model.evaluate(ctx)
        assert estimate.cost_guided > 0
        assert estimate.cost_bibfs > 0
        assert estimate.projected_contractions > 0
        assert isinstance(estimate.switch, bool)

    def test_backward_push_costs_more(self, sbm_small):
        fwd_model, params = self._model(sbm_small)
        bwd_model, bwd_params = self._model(sbm_small, push_style="backward")
        ctx_f = SearchContext(sbm_small, params, 0, 1)
        ctx_b = SearchContext(sbm_small, bwd_params, 0, 1)
        assert (
            bwd_model.evaluate(ctx_b).cost_guided
            > fwd_model.evaluate(ctx_f).cost_guided
        )

    def test_initial_decision_cached(self, sbm_small):
        model, params = self._model(sbm_small)
        ctx = SearchContext(sbm_small, params, 0, 1)
        first = model.should_switch(ctx)
        assert model._initial_decisions  # memoized
        assert model.should_switch(ctx) == first

    def test_higher_lambda_biases_to_bibfs(self, sbm_small):
        low, low_params = self._model(sbm_small, lambda_ratio=0.1)
        high, high_params = self._model(sbm_small, lambda_ratio=100.0)
        ctx_low = SearchContext(sbm_small, low_params, 0, 1)
        ctx_high = SearchContext(sbm_small, high_params, 0, 1)
        assert (
            high.evaluate(ctx_high).cost_guided
            > low.evaluate(ctx_low).cost_guided
        )


class TestBaselineAlg1:
    def test_positive_found(self, highschool):
        assert push_reachability(highschool, 0, 17, epsilon=1e-3)

    def test_never_false_positive(self):
        g = random_graph(20, 40, seed=9)
        vs = list(g.vertices())
        for s in vs[:6]:
            for t in vs[:6]:
                if push_reachability(g, s, t, epsilon=1e-5):
                    assert is_reachable_bfs(g, s, t)

    def test_false_negative_with_large_epsilon(self, highschool):
        """The Fig. 1 inter-community failure: a large epsilon terminates
        before leaving the source community."""
        assert not push_reachability(highschool, 0, 55, epsilon=5e-2)
        assert is_reachable_bfs(highschool, 0, 55)

    def test_trivial_and_missing(self, line_graph):
        assert push_reachability(line_graph, 1, 1)
        assert not push_reachability(line_graph, 0, 42)

    def test_invalid_style(self, line_graph):
        with pytest.raises(ValueError):
            push_reachability(line_graph, 0, 1, push_style="diagonal")

    def test_backward_style(self, highschool):
        assert push_reachability(
            highschool, 0, 17, epsilon=1e-4, push_style="backward"
        )

    def test_precision_measurement(self, highschool):
        queries = [(0, 17), (0, 55), (17, 0)]
        truth = [is_reachable_bfs(highschool, s, t) for s, t in queries]
        precision = baseline_precision(highschool, queries, truth, 0.1, 1e-6)
        assert 0.0 <= precision <= 1.0

    def test_precision_empty(self, highschool):
        assert baseline_precision(highschool, [], [], 0.1, 1e-3) == 1.0

    def test_precision_length_mismatch(self, highschool):
        with pytest.raises(ValueError):
            baseline_precision(highschool, [(0, 1)], [], 0.1, 1e-3)

    def test_tuning_reaches_full_precision(self, highschool):
        import random

        rng = random.Random(5)
        queries = [(rng.randrange(70), rng.randrange(70)) for _ in range(30)]
        queries = [(s, t) for s, t in queries if s != t]
        truth = [is_reachable_bfs(highschool, s, t) for s, t in queries]
        epsilon, precision = tune_epsilon_for_precision(
            highschool, queries, truth, target_precision=1.0
        )
        assert precision == 1.0
        assert epsilon > 0

    def test_tuning_invalid_target(self, highschool):
        with pytest.raises(ValueError):
            tune_epsilon_for_precision(highschool, [], [], target_precision=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**5), eps_exp=st.integers(1, 6))
def test_property_baseline_one_sided(seed, eps_exp):
    """Alg. 1 never reports true for an unreachable pair at any epsilon."""
    g = random_graph(12, 25, seed)
    vs = list(g.vertices())
    s, t = vs[0], vs[-1]
    answer = push_reachability(g, s, t, epsilon=10.0 ** (-eps_exp))
    if answer:
        assert is_reachable_bfs(g, s, t)
