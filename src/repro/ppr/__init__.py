"""Personalized PageRank by forward push (Sec. III-A of the paper).

:func:`~repro.ppr.forward_push.forward_push` (Andersen–Chung–Lang) backs
the push experiments of Figs. 2–3 and the shard partitioner's PPR sweep
cuts; :class:`~repro.ppr.common.Worklist` is the threshold queue
the push baseline (Alg. 1) drains. IFCA's own guided search runs its
push loops in :mod:`repro.core.guided` and :mod:`repro.core.array_search`,
and ARROW runs its own random walks.
"""

from repro.ppr.common import PushConfig, PushState
from repro.ppr.forward_push import forward_push

__all__ = [
    "PushConfig",
    "PushState",
    "forward_push",
]
