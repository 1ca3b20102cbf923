"""Per-query statistics.

Edge accesses are "the main factor influencing the query processing time"
of index-free methods (Sec. IV, Fig. 1), so every search component counts
them; benchmarks report both wall time and these counters to separate
algorithmic work from interpreter constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class QueryStats:
    """Counters accumulated over one reachability query."""

    #: Edge accesses during probability-guided search (both directions).
    guided_edge_accesses: int = 0
    #: Edge accesses during the BiBFS phase (0 when no switch happened).
    bibfs_edge_accesses: int = 0
    #: Individual push operations (vertex expansions) in guided search.
    push_operations: int = 0
    #: Community contractions performed, forward + reverse.
    contractions_forward: int = 0
    contractions_reverse: int = 0
    #: Main-loop rounds executed (Alg. 2 while iterations).
    rounds: int = 0
    #: Whether the cost model (or the forced override) switched to BiBFS.
    switched_to_bibfs: bool = False
    #: Which component produced the final answer:
    #: "trivial" | "guided" | "contraction" | "exhausted" | "bibfs".
    terminated_by: str = ""
    #: The query answer, once known.
    result: Optional[bool] = None
    #: Vertices merged into the two super-vertices.
    merged_forward: int = 0
    merged_reverse: int = 0
    #: Whether the BiBFS phase ran on the vectorized CSR kernel.
    used_kernel: bool = False
    #: Whether the guided phase ran on the array-state push kernels
    #: (:mod:`repro.core.array_search`). The counter contract is shared:
    #: ``push_operations`` counts vertex expansions and
    #: ``guided_edge_accesses`` counts adjacency entries scanned, in the
    #: same units on the dict and array paths (lambda calibration relies
    #: on it).
    used_push_kernel: bool = False
    #: Whether the query was interrupted by a cooperative budget
    #: (:class:`~repro.core.budget.BudgetExceeded` was raised); the
    #: counters then cover only the work done up to the interrupt.
    budget_exhausted: bool = False

    @property
    def edge_accesses(self) -> int:
        """Total edge accesses across both phases (the paper's cost unit)."""
        return self.guided_edge_accesses + self.bibfs_edge_accesses

    @property
    def contractions(self) -> int:
        return self.contractions_forward + self.contractions_reverse
