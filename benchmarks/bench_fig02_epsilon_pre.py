"""Fig. 2 — average query time varying ``epsilon_pre``.

Paper shape: the curve first decreases then increases in ``epsilon_pre``
(the Lemma 1 bound is loose below the community turning point), so the
best value sits at an interior point rather than at either extreme.
"""

from benchmarks.conftest import paper_params


@paper_params("fig02")
def test_fig02_epsilon_pre_sweep(run_paper, entry):
    rows = run_paper(entry)
    assert len(rows) == len(entry.parameters["epsilon_pre_values"])
    assert all(r["avg_query_time_ms"] > 0 for r in rows)
