"""Community-structure tools: sweep cuts, clustering, power laws.

These back two parts of the paper: the contraction trigger (conductance
and its PPR connection, Sec. V-C; the sweep computes conductance
incrementally) and the cost model's power-law machinery (``beta``, ``c``,
and the ``k_f`` bounds of Sec. V-D3). The clustering
coefficient reproduces Tab. II's community/no-community categorization
(threshold 0.01).
"""

from repro.community.sweep import sweep_cut
from repro.community.clustering import (
    global_clustering_coefficient,
    has_discernible_communities,
    sampled_clustering_coefficient,
)
from repro.community.powerlaw import (
    fit_power_law_exponent,
    harmonic_partial_sum,
    ppr_power_law_constants,
)

__all__ = [
    "sweep_cut",
    "global_clustering_coefficient",
    "sampled_clustering_coefficient",
    "has_discernible_communities",
    "fit_power_law_exponent",
    "harmonic_partial_sum",
    "ppr_power_law_constants",
]
