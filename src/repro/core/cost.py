"""Cost-based strategy selection — Algorithm 6 and the Sec. V-D cost model.

Estimated cost of each strategy = (projected number of basic operations)
x (relative per-operation execution time). Guided-search operations are
``lambda`` times slower than BiBFS operations (``lambda`` is measured by
:mod:`repro.experiments.lambda_calibration`; the paper's Sec. V-D4).

Number of operations:

* continuing guided search — push up to the next contraction costs
  ``1/(alpha*eps_span) - 1/(alpha*eps_cur)`` operations and each later
  contraction-to-contraction span ``1/(alpha*eps_span) -
  1/(alpha*eps_init)``, where ``eps_span`` is the paper's ``eps_pre``
  except in the degenerate ``eps_init <= eps_pre * step`` corner (see
  :meth:`CostModel._span_epsilon`); the projected number of remaining
  contractions is ``N = n_f/k_f + n_r/k_r`` with ``k`` bounded through the
  power-law PPR assumption (Eqs. 1-4); backward push carries an extra
  ``d_avg`` factor (Lem. 1);
* switching to BiBFS — ``|V'| + |E'|`` (Lem. 2) with ``|V'|`` the
  unexplored vertices of the reduced graph and ``|E'|`` tracked through the
  ``intEdges`` counters (``m'`` minus the internal edges absorbed so far).

We use the paper's *upper* bound for ``k`` (their experimental choice),
which biases the model toward continuing the guided search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.community.powerlaw import power_law_coefficient, ppr_power_law_constants
from repro.core.params import PUSH_BACKWARD, ResolvedParams
from repro.core.state import SearchContext
from repro.graph.digraph import DynamicDiGraph

#: Degrees sampled when fitting beta on large graphs.
_BETA_SAMPLE_SIZE = 2048


@dataclass(frozen=True)
class CostEstimate:
    """The two sides of the Alg. 6 comparison, for introspection."""

    cost_guided: float
    cost_bibfs: float
    k_forward: float
    k_reverse: float
    projected_contractions: float

    @property
    def switch(self) -> bool:
        return self.cost_bibfs < self.cost_guided


class CostModel:
    """Per-graph cost model state: the fitted ``beta`` and ``lambda``.

    ``beta`` is always fitted from sampled degrees (Sec. V-D3: it derives
    from the graph's power law). ``beta=`` hands in a fit made earlier:
    the IFCA engine caches the sampling across updates and refits only
    when the graph has drifted by more than 10% of its edges.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        params: ResolvedParams,
        seed: Optional[int] = 0,
        beta: Optional[float] = None,
    ) -> None:
        self.params = params
        self.d_avg = max(graph.average_degree, 1e-9)
        self.beta = beta if beta is not None else self.fit_beta(graph, seed)
        # Round-1 decisions depend only on (n, m, epsilon_cur); nearly every
        # query asks exactly that, so memoize it.
        self._initial_decisions: dict = {}

    @classmethod
    def fit_beta(cls, graph: DynamicDiGraph, seed: Optional[int] = 0) -> float:
        """Fit the PPR power-law exponent from sampled degrees (Sec. V-D3)."""
        degrees = cls._sample_degrees(graph, seed)
        beta, _ = ppr_power_law_constants(degrees, max(graph.num_vertices, 1))
        return beta

    @staticmethod
    def _sample_degrees(graph: DynamicDiGraph, seed: Optional[int]) -> list:
        vertices = list(graph.vertices())
        if len(vertices) > _BETA_SAMPLE_SIZE:
            rng = random.Random(seed)
            vertices = rng.sample(vertices, _BETA_SAMPLE_SIZE)
        return [graph.degree(v) for v in vertices]

    # ------------------------------------------------------------------
    def k_upper_bound(self, n_remaining: int) -> float:
        """Eq. 2: ``k <= (c / (alpha (1-alpha) eps_pre))^(1/beta)``."""
        p = self.params
        c = power_law_coefficient(max(n_remaining, 1), self.beta)
        base = c / (p.alpha * (1.0 - p.alpha) * p.epsilon_pre)
        if base <= 1.0:
            return 1.0
        k = base ** (1.0 / self.beta)
        return min(max(k, 1.0), float(max(n_remaining, 1)))

    def _span_epsilon(self) -> float:
        """The effective threshold a contraction span is priced at.

        The paper prices a span at ``epsilon_pre``. That degenerates to a
        zero-cost span when ``epsilon_init`` sits at (or below) the first
        ladder notch above ``epsilon_pre`` — the model would then believe
        guided search is free and never switch. In that corner we price
        the span one ladder notch lower (``epsilon_init / step``), which
        is where Alg. 4's strict ``epsilon_cur < epsilon_pre`` trigger
        actually fires; everywhere else the paper's formula is kept.
        """
        p = self.params
        return min(p.epsilon_pre, p.epsilon_init / p.step)

    # ------------------------------------------------------------------
    def evaluate(self, ctx: SearchContext) -> CostEstimate:
        """Alg. 6: the projected costs of the two strategies right now.

        ``ctx`` may be either context flavour (dict
        :class:`~repro.core.state.SearchContext` or the array-state twin);
        the model only reads the ``progress()`` protocol plus the reduced
        size counters.
        """
        p = self.params
        explored_f, explored_r, int_f, int_r, _ = ctx.progress()
        # n_reduced already excludes contracted vertices; subtracting the
        # currently explored (not yet contracted) ones gives the paper's
        # "n minus the number of explored vertices".
        n_f = max(ctx.n_reduced - explored_f, 1)
        n_r = max(ctx.n_reduced - explored_r, 1)
        k_f = self.k_upper_bound(n_f)
        k_r = self.k_upper_bound(n_r)
        projected_n = n_f / k_f + n_r / k_r

        inv = 1.0 / p.alpha
        span_eps = self._span_epsilon()
        ops_to_next = max(inv / span_eps - inv / max(ctx.epsilon_cur, 1e-300), 0.0)
        ops_per_span = max(inv / span_eps - inv / p.epsilon_init, 0.0)
        ops_guided = ops_to_next + projected_n * ops_per_span
        if p.push_style == PUSH_BACKWARD:
            ops_guided *= self.d_avg
        cost_guided = 2.0 * p.lambda_ratio * ops_guided

        explored = explored_f + explored_r
        v_prime = max(ctx.n_reduced - explored, 0)
        e_prime = max(ctx.m_reduced - int_f - int_r, 0)
        cost_bibfs = float(v_prime + e_prime)

        return CostEstimate(
            cost_guided=cost_guided,
            cost_bibfs=cost_bibfs,
            k_forward=k_f,
            k_reverse=k_r,
            projected_contractions=projected_n,
        )

    def should_switch(self, ctx: SearchContext) -> bool:
        """Whether Alg. 2 should break its loop and hand over to BiBFS."""
        if not ctx.progress()[4]:
            return self.initial_switch_decision(
                ctx.n_reduced, ctx.m_reduced, ctx.epsilon_cur
            )
        return self.evaluate(ctx).switch

    def initial_switch_decision(self, n: int, m: int, epsilon_cur: float) -> bool:
        """The round-1 Alg. 6 decision, which depends only on (n, m,
        epsilon_cur). Memoized; the IFCA engine uses it both inside the
        main loop and as a fast path that skips search-state setup
        entirely when the very first decision is already "switch"."""
        key = (n, m, epsilon_cur)
        cached = self._initial_decisions.get(key)
        if cached is None:
            p = self.params
            n_eff = max(n, 1)
            k = self.k_upper_bound(n_eff)
            projected_n = 2.0 * n_eff / k
            inv = 1.0 / p.alpha
            span_eps = self._span_epsilon()
            ops_to_next = max(
                inv / span_eps - inv / max(epsilon_cur, 1e-300), 0.0
            )
            ops_per_span = max(inv / span_eps - inv / p.epsilon_init, 0.0)
            ops_guided = ops_to_next + projected_n * ops_per_span
            if p.push_style == PUSH_BACKWARD:
                ops_guided *= self.d_avg
            cached = float(n + m) < 2.0 * p.lambda_ratio * ops_guided
            self._initial_decisions[key] = cached
        return cached
