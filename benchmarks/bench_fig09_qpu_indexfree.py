"""Fig. 9 — total time varying QpU: the index-free methods.

Paper shape: all index-free lines start at (nearly) the same tiny update
cost, so the ranking is decided purely by query time; IFCA and BiBFS stay
within a small factor of each other across the whole QpU range.
"""

from repro.experiments.qpu import INDEX_FREE

from benchmarks.conftest import paper_params


@paper_params("fig09")
def test_fig09_qpu_vs_index_free(run_paper, entry):
    rows = run_paper(entry)
    at_qpu1 = {r["method"]: r for r in rows if r["qpu"] == 1}
    assert set(at_qpu1) == set(INDEX_FREE)
    # Index-free updates are adjacency-only: all within a small factor.
    updates = [row["avg_update_ms"] for row in at_qpu1.values()]
    assert max(updates) < 25 * max(min(updates), 1e-9)
    # IFCA tracks BiBFS over the whole sweep.
    for qpu in (1, 100, 1000):
        at = {r["method"]: r for r in rows if r["qpu"] == qpu}
        assert at["IFCA"]["total_ms"] < 12 * at["BiBFS"]["total_ms"]
