"""Plain bidirectional BFS — the paper's strongest simple competitor.

"Interestingly, we find that BiBFS is actually more efficient than
state-of-the-art reachability algorithms on dynamic graphs when
considering both query and update time" (Sec. I). Index-free: updates
touch only the adjacency lists. The search itself,
:func:`~repro.core.bibfs.bibfs_is_reachable`, lives beside Alg. 5 in
``core`` and is re-exported here.
"""

from __future__ import annotations

from repro.core.bibfs import bibfs_is_reachable
from repro.core.method import ReachabilityMethod


class BiBFSMethod(ReachabilityMethod):
    """BiBFS behind the uniform competitor interface."""

    name = "BiBFS"
    exact = True
    supports_deletions = True

    def query(self, source: int, target: int) -> bool:
        return bibfs_is_reachable(self.graph, source, target)
