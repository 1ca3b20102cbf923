"""IFCA core: Algorithms 1-6 of the paper.

Public entry points:

* :class:`~repro.core.ifca.IFCA` — the full framework (Alg. 2): an engine
  bound to one dynamic graph, answering exact reachability queries.
* :class:`~repro.core.params.IFCAParams` — the tunables some caller
  varies, with the paper's heuristic defaults (Sec. VI-A4). Contraction
  is always on and ``beta`` always fitted; the round cap and the
  budget-check interval are module constants
  (:data:`repro.core.ifca.MAX_ROUNDS`,
  :data:`repro.core.guided.BUDGET_CHECK_INTERVAL`).
* :func:`~repro.core.baseline.push_reachability` — the approximate
  push-based baseline (Alg. 1).
* :class:`~repro.core.stats.QueryStats` — per-query counters (edge
  accesses, pushes, contractions, strategy switches).

Variants for the ablation experiments are expressed through parameters:
``IFCAParams(use_cost_model=False)`` is the paper's *Contract*,
``IFCAParams(force_switch_round=0)`` degenerates to frontier BiBFS, and
:func:`push_reachability` is *Base*.
"""

from repro.core.params import IFCAParams, ResolvedParams
from repro.core.stats import QueryStats
from repro.core.ifca import IFCA, IFCAMethod
from repro.core.baseline import push_reachability, tune_epsilon_for_precision
from repro.core.bibfs import frontier_bibfs
from repro.core.cost import CostModel, CostEstimate

__all__ = [
    "IFCA",
    "IFCAMethod",
    "IFCAParams",
    "ResolvedParams",
    "QueryStats",
    "push_reachability",
    "tune_epsilon_for_precision",
    "frontier_bibfs",
    "CostModel",
    "CostEstimate",
]
