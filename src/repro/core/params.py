"""IFCA parameters and their heuristic defaults (Sec. VI-A4).

The paper's parameter study (Sec. VI-A) concludes the parameters can be
chosen heuristically:

* ``epsilon_pre = 100 / m`` — smaller on larger/denser graphs;
* ``alpha = 0.1`` — following local community detection practice;
* ``epsilon_init = 100 * epsilon_pre``;
* ``step = 10``.

``epsilon_pre`` and ``epsilon_init`` default to ``None`` here and are
resolved against the *current snapshot's* edge count at query time, so a
long-lived engine tracks the paper's ``100/m`` rule as the graph evolves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.graph.digraph import DynamicDiGraph

#: Push weighting styles (Sec. III-A): forward push divides by the sender's
#: out-degree and normalizes thresholds by it; backward push divides by the
#: receiver's in-degree and uses no normalization.
PUSH_FORWARD = "forward"
PUSH_BACKWARD = "backward"

#: Absolute floor for the shrinking threshold, preventing denormal-float
#: stalls on pathological inputs. Far below any epsilon_pre in practice.
EPSILON_FLOOR = 2.0 ** -60

#: Worklist disciplines for Alg. 3's "choose any u" (the paper leaves the
#: order free): plain stack order (the default — cheapest per operation),
#: or greedy highest-residue-first, which follows the PPR mass and touches
#: intra-community destinations after fewer edge accesses at the price of
#: a heap operation per push (see the push-order ablation bench).
ORDER_LIFO = "lifo"
ORDER_GREEDY = "greedy"


@dataclass(frozen=True)
class IFCAParams:
    """User-facing tunables of the IFCA framework.

    ``use_cost_model=False`` selects the paper's *Contract* ablation
    variant; ``force_switch_round`` (used by the Tab. IV oracle) overrides
    the cost model and hands over to BiBFS after exactly that many main-loop
    rounds (0 = immediately). Community contraction is always on (Alg. 2),
    the power-law exponent ``beta`` is always fitted from the graph
    (Sec. V-D3), and the round cap and budget-check interval are module
    constants (:data:`repro.core.ifca.MAX_ROUNDS`,
    :data:`repro.core.guided.BUDGET_CHECK_INTERVAL`): every field here has
    a caller outside the tests that sets it.
    """

    alpha: float = 0.1
    epsilon_pre: Optional[float] = None
    epsilon_init: Optional[float] = None
    step: float = 10.0
    push_style: str = PUSH_FORWARD
    push_order: str = ORDER_LIFO
    lambda_ratio: float = 1.7
    use_cost_model: bool = True
    force_switch_round: Optional[int] = None
    #: The one substrate switch: when a current-version snapshot is
    #: already frozen (``graph.csr(build=False)``) as a query starts, every
    #: phase of it (Alg. 3 drains, Alg. 4 contraction, the Alg. 5 hand-off,
    #: or the immediate BiBFS) runs on the CSR arrays
    #: (:mod:`repro.core.array_search`); otherwise, or with this off, every
    #: phase runs on the dict twins. One query never mixes the two.
    use_kernels: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.step <= 1:
            raise ValueError("step must be > 1")
        if self.push_style not in (PUSH_FORWARD, PUSH_BACKWARD):
            raise ValueError(f"unknown push_style {self.push_style!r}")
        if self.push_order not in (ORDER_LIFO, ORDER_GREEDY):
            raise ValueError(f"unknown push_order {self.push_order!r}")
        if self.epsilon_pre is not None and self.epsilon_pre <= 0:
            raise ValueError("epsilon_pre must be positive")
        if self.epsilon_init is not None and self.epsilon_init <= 0:
            raise ValueError("epsilon_init must be positive")
        if self.lambda_ratio <= 0:
            raise ValueError("lambda_ratio must be positive")

    def with_overrides(self, **kwargs: object) -> "IFCAParams":
        """A copy with some fields replaced (frozen-dataclass convenience)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def resolve(self, graph: DynamicDiGraph) -> "ResolvedParams":
        """Bind the ``None`` defaults to the current snapshot (Sec. VI-A4)."""
        m = max(graph.num_edges, 1)
        epsilon_pre = self.epsilon_pre if self.epsilon_pre is not None else 100.0 / m
        epsilon_init = (
            self.epsilon_init
            if self.epsilon_init is not None
            else 100.0 * epsilon_pre
        )
        if epsilon_init < epsilon_pre:
            raise ValueError("epsilon_init must be >= epsilon_pre")
        return ResolvedParams(
            alpha=self.alpha,
            epsilon_pre=epsilon_pre,
            epsilon_init=epsilon_init,
            step=self.step,
            push_style=self.push_style,
            push_order=self.push_order,
            lambda_ratio=self.lambda_ratio,
            use_cost_model=self.use_cost_model,
            force_switch_round=self.force_switch_round,
            use_kernels=self.use_kernels,
        )


@dataclass(frozen=True)
class ResolvedParams:
    """Concrete per-query parameters with every default filled in."""

    alpha: float
    epsilon_pre: float
    epsilon_init: float
    step: float
    push_style: str
    push_order: str
    lambda_ratio: float
    use_cost_model: bool
    force_switch_round: Optional[int]
    use_kernels: bool = True
