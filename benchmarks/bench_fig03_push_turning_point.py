"""Fig. 3 — average forward-push time varying ``1/epsilon_pre``.

Paper shape: each curve has a turning point; beyond it the push time grows
linearly in ``1/epsilon`` (Lemma 1's bound is tight), before it the growth
is sublinear because the push exhausts the community first. We check
sublinearity on the first half of the sweep and report the full series.
"""

from benchmarks.conftest import paper_params


@paper_params("fig03")
def test_fig03_push_turning_point(run_paper, entry):
    rows = run_paper(entry)
    accesses = [r["avg_edge_accesses"] for r in rows]
    assert accesses == sorted(accesses)
    # Sublinear region: over the full sweep the work grows far slower than
    # 1/epsilon (3000x here), because pushes saturate the reachable
    # neighborhood — this is exactly why the turning point exists.
    inverse_epsilons = entry.parameters["inverse_epsilons"]
    growth = accesses[-1] / max(accesses[0], 1)
    ratio_range = inverse_epsilons[-1] / inverse_epsilons[0]
    assert growth < ratio_range
