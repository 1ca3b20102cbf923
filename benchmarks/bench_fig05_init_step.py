"""Fig. 5 — average query time over the ``epsilon_init`` x ``step`` grid.

Paper shape: the impact of both parameters is insignificant — the grid's
spread stays within a small factor of its best cell, justifying the
heuristic defaults (``epsilon_init = 100 * epsilon_pre``, ``step = 10``).
"""

from benchmarks.conftest import paper_params


@paper_params("fig05")
def test_fig05_init_step_grid(run_paper, entry):
    rows = run_paper(entry)
    times = [r["avg_query_time_ms"] for r in rows]
    # "Their impact on the average query time is insignificant": the whole
    # grid stays within an order of magnitude of the best cell.
    assert max(times) < 10 * min(times)
