"""Competitor reachability methods re-implemented from their papers.

All methods implement the :class:`repro.core.method.ReachabilityMethod`
interface so the dynamic driver and benchmarks treat them uniformly:

* :class:`~repro.baselines.bibfs.BiBFSMethod` — bidirectional BFS (exact,
  index-free; the paper's strongest simple competitor).
* :class:`~repro.baselines.arrow.ArrowMethod` — ARROW random-walk
  reachability (approximate, index-free) [Sengupta et al., ICDE 2019].
* :class:`~repro.baselines.tol.TOLMethod` — total-order 2-hop labels on the
  maintained condensation DAG [Zhu et al., SIGMOD 2014].
* :class:`~repro.baselines.ip.IPMethod` — independent-permutation min-wise
  labels with pruned search [Wei et al., VLDBJ 2018].
* :class:`~repro.baselines.dagger.DaggerMethod` — incremental DAG plus
  GRAIL-style interval labels with pruned DFS [Yildirim et al., 2013].
* :class:`~repro.baselines.dbl.DBLMethod` — DBL's landmark + hash labels
  (insert-only) [Lyu et al., 2021] as an adapter over ``graph.labels``; an
  extension, excluded from the paper's main comparison (cannot delete).
"""

from repro.baselines.bibfs import BiBFSMethod, bibfs_is_reachable
from repro.baselines.arrow import ArrowMethod
from repro.baselines.tol import TOLMethod
from repro.baselines.ip import IPMethod
from repro.baselines.dagger import DaggerMethod
from repro.baselines.dbl import DBLMethod
from repro.core.method import ReachabilityMethod

__all__ = [
    "ReachabilityMethod",
    "BiBFSMethod",
    "bibfs_is_reachable",
    "ArrowMethod",
    "TOLMethod",
    "IPMethod",
    "DaggerMethod",
    "DBLMethod",
]
