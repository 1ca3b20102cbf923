"""The IFCA main algorithm — Algorithm 2.

:class:`IFCA` binds the framework to one dynamic graph and answers exact
reachability queries. Being index-free, updates cost exactly one adjacency
modification; the engine only refreshes the cost model's cached power-law
fit occasionally.

The main loop per query:

1. cost-based strategy selection (Alg. 6) — break to BiBFS when cheaper;
2. forward probability-guided search (Alg. 3) — ``True`` on meet;
3. forward community contraction (Alg. 4) — may also prove a meet, or
   prove the query negative by exhausting the forward reachable set;
4. the reverse-direction twins of 2 and 3;
5. shrink ``epsilon_cur`` by ``step`` and repeat.

Termination notes (DESIGN.md): exhaustion is detected per side (a
strengthening of Alg. 2 line 16, which waits for both sides), contraction
is skipped when nothing new was explored (avoids an epsilon-reset livelock)
and ``epsilon_cur`` is floored, and a :data:`MAX_ROUNDS` safety valve falls
back to the always-terminating BiBFS — so the engine is total on any input.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.baselines.base import ReachabilityMethod
from repro.baselines.bibfs import bibfs_is_reachable
from repro.core.array_search import (
    ArraySearchContext,
    array_community_contraction,
    array_frontier_bibfs,
    array_guided_search,
)
from repro.core.bibfs import frontier_bibfs
from repro.core.budget import Budget, BudgetExceeded
from repro.core.contraction import ContractionOutcome, community_contraction
from repro.core.cost import CostModel
from repro.core.guided import guided_search
from repro.core.params import EPSILON_FLOOR, IFCAParams
from repro.core.state import SearchContext
from repro.core.stats import QueryStats
from repro.graph import kernels
from repro.graph.digraph import DynamicDiGraph

#: Main-loop rounds after which a query hands over to BiBFS whatever the
#: cost model says (the termination safety valve; read per query).
MAX_ROUNDS = 10_000


class IFCA:
    """The index-free community-aware reachability engine.

    Parameters
    ----------
    graph:
        The dynamic graph to answer queries on. Vertex ids must be
        non-negative (the contraction overlay reserves negative sentinels).
    params:
        Tunables; the default follows the paper's heuristic choices.
    """

    #: Feature flag for callers (the serving layer probes it before
    #: passing ``budget=`` — third-party engines behind the same interface
    #: may not accept the keyword).
    supports_budget = True

    def __init__(
        self,
        graph: DynamicDiGraph,
        params: Optional[IFCAParams] = None,
    ) -> None:
        self.graph = graph
        self.params = params if params is not None else IFCAParams()
        self._cost_model: Optional[CostModel] = None
        self._resolved = None
        self._resolved_edges = -1
        self._beta: Optional[float] = None
        self._beta_edges = -1

    # ------------------------------------------------------------------
    # Updates (index-free: adjacency only)
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        if u < 0 or v < 0:
            raise ValueError("IFCA requires non-negative vertex ids")
        self.graph.add_edge(u, v)

    def delete_edge(self, u: int, v: int) -> None:
        self.graph.remove_edge(u, v)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def is_reachable(self, source: int, target: int) -> bool:
        """Exact reachability ``source -> target``."""
        answer, _ = self.query_with_stats(source, target)
        return answer

    def query_with_stats(
        self,
        source: int,
        target: int,
        budget: Optional[Budget] = None,
    ) -> Tuple[bool, QueryStats]:
        """Exact reachability plus the per-query counters.

        ``budget``, when given, is checkpointed cooperatively at drain,
        layer, and round boundaries. An exhausted budget raises
        :class:`~repro.core.budget.BudgetExceeded` with ``exc.partial``
        set to the sound resumable search state when one exists
        (contraction-free queries only) and ``exc.query_stats`` holding
        the counters accrued up to the interrupt.
        """
        stats = QueryStats()
        if source == target:
            stats.result = True
            stats.terminated_by = "trivial"
            return True, stats
        if source not in self.graph or target not in self.graph:
            stats.result = False
            stats.terminated_by = "trivial"
            return False, stats
        if source < 0 or target < 0:
            raise ValueError("IFCA requires non-negative vertex ids")

        params = self._resolve_params()
        cost_model = self._get_cost_model(params)
        if budget is not None:
            budget.checkpoint()  # pre-exhausted budgets fail before work

        # Fast path: when the round-1 strategy decision is already
        # "switch", Alg. 2 degenerates to plain BiBFS from {s} / {t} — run
        # it directly without building any guided-search state.
        immediate = params.force_switch_round == 0 or (
            params.force_switch_round is None
            and params.use_cost_model
            and cost_model.initial_switch_decision(
                self.graph.num_vertices, self.graph.num_edges, params.epsilon_init
            )
        )
        ctx = None
        try:
            if immediate:
                stats.rounds = 1
                stats.switched_to_bibfs = True
                met = bibfs_is_reachable(
                    self.graph,
                    source,
                    target,
                    stats,
                    use_kernels=params.use_kernels,
                    budget=budget,
                )
                return self._finish(stats, met, "bibfs")

            # One substrate per query: with ``use_kernels`` on and a
            # current-version snapshot already frozen, every phase (drains,
            # contraction, hand-off) runs on the array twins; otherwise —
            # the switch off, or a mid-churn graph whose snapshot is stale
            # — every phase runs on the dict twins, even if the version is
            # frozen mid-query.
            ctx = self._make_context(params, source, target, budget)
            if isinstance(ctx, ArraySearchContext):
                stats.used_push_kernel = True
                guided, contract = array_guided_search, array_community_contraction
            else:
                guided, contract = guided_search, community_contraction

            while True:
                stats.rounds += 1
                if self._should_switch(ctx, cost_model, stats.rounds, params):
                    break
                if guided(ctx, ctx.fwd, stats):
                    return self._finish(stats, True, "guided")
                outcome = contract(ctx, ctx.fwd, stats)
                if outcome is ContractionOutcome.MEET:
                    return self._finish(stats, True, "contraction")
                if outcome is ContractionOutcome.EXHAUSTED:
                    return self._finish(stats, False, "exhausted")
                if guided(ctx, ctx.rev, stats):
                    return self._finish(stats, True, "guided")
                outcome = contract(ctx, ctx.rev, stats)
                if outcome is ContractionOutcome.MEET:
                    return self._finish(stats, True, "contraction")
                if outcome is ContractionOutcome.EXHAUSTED:
                    return self._finish(stats, False, "exhausted")
                ctx.epsilon_cur = max(ctx.epsilon_cur / params.step, EPSILON_FLOOR)

            # BiBFS takes over from the frontiers (Alg. 2 lines 18-20).
            stats.switched_to_bibfs = True
            if isinstance(ctx, ArraySearchContext):
                met = array_frontier_bibfs(ctx, stats)
            else:
                met = frontier_bibfs(
                    ctx, ctx.frontier(ctx.fwd), ctx.frontier(ctx.rev), stats
                )
            return self._finish(stats, met, "bibfs")
        except BudgetExceeded as exc:
            stats.budget_exhausted = True
            stats.terminated_by = "budget"
            if exc.partial is None and ctx is not None:
                exc.partial = ctx.export_state()
            exc.query_stats = stats
            raise

    def _make_context(
        self, params, source: int, target: int, budget: Optional[Budget] = None
    ):
        """Pick the array-state context when its preconditions hold."""
        if params.use_kernels:
            snapshot = self.graph.csr(build=False)
            if snapshot is not None:
                return ArraySearchContext(
                    self.graph, snapshot, params, source, target, budget
                )
        return SearchContext(self.graph, params, source, target, budget)

    # ------------------------------------------------------------------
    def _should_switch(
        self,
        ctx: SearchContext,
        cost_model: CostModel,
        round_number: int,
        params,
    ) -> bool:
        if params.force_switch_round is not None:
            return round_number > params.force_switch_round
        if round_number > MAX_ROUNDS:
            return True
        if not params.use_cost_model:
            return False
        return cost_model.should_switch(ctx)

    def _resolve_params(self):
        """Bind the ``100/m`` defaults, reusing the binding while ``m`` is
        unchanged (queries vastly outnumber updates in most workloads)."""
        m = self.graph.num_edges
        if self._resolved is None or m != self._resolved_edges:
            self._resolved = self.params.resolve(self.graph)
            self._resolved_edges = m
        return self._resolved

    def _get_cost_model(self, params) -> CostModel:
        """Keep the cost model in sync cheaply.

        The expensive part — sampling degrees and fitting the power-law
        exponent — is cached until the graph drifts by >10% of its edges;
        rebinding the model to fresh parameters (every ``100/m`` default
        moves with each update) reuses the cached fit.
        """
        m = self.graph.num_edges
        if (
            self._beta is None
            or self._beta_edges <= 0
            or abs(m - self._beta_edges) > 0.1 * self._beta_edges
        ):
            self._beta = CostModel.fit_beta(self.graph)
            self._beta_edges = max(m, 1)
            self._cost_model = None
        if self._cost_model is None or self._cost_model.params is not params:
            self._cost_model = CostModel(self.graph, params, beta=self._beta)
        return self._cost_model

    @staticmethod
    def _finish(stats: QueryStats, result: bool, reason: str):
        stats.result = result
        stats.terminated_by = reason
        return result, stats


class IFCAMethod(ReachabilityMethod):
    """IFCA behind the uniform competitor interface."""

    name = "IFCA"
    exact = True
    supports_deletions = True

    def __init__(
        self, graph: DynamicDiGraph, params: Optional[IFCAParams] = None
    ) -> None:
        super().__init__(graph)
        self.engine = IFCA(graph, params)

    def query(self, source: int, target: int) -> bool:
        return self.engine.is_reachable(source, target)

    def insert_edge(self, source: int, target: int) -> None:
        self.engine.insert_edge(source, target)

    def delete_edge(self, source: int, target: int) -> None:
        self.engine.delete_edge(source, target)
