"""Fig. 10 — IFCA scalability on two-block SBM snapshots.

The paper varies block sizes 1e5..1e7 and average degrees 2.5..10 with
``epsilon_pre`` pinned to 1e-4; we run the same sweep at laptop scale.

Paper shape: query time grows with the number of vertices but *falls*
slightly with density, because (a) the negative-query ratio drops on
denser graphs and (b) positive pairs get closer. Both explanatory
statistics are measured and asserted alongside the timings.
"""

from benchmarks.conftest import paper_params


@paper_params("fig10")
def test_fig10_scalability(run_paper, entry):
    rows = run_paper(entry)
    block_sizes = entry.parameters["block_sizes"]
    cell = {(r["block_size"], r["avg_degree"]): r for r in rows}
    # Larger graphs cost more at fixed degree.
    assert (
        cell[(block_sizes[-1], 5.0)]["avg_query_time_ms"]
        > cell[(block_sizes[0], 5.0)]["avg_query_time_ms"]
    )
    # The paper's two density mechanisms:
    for b in block_sizes:
        assert (
            cell[(b, 10.0)]["negative_fraction"]
            <= cell[(b, 2.5)]["negative_fraction"]
        )
        if cell[(b, 2.5)]["avg_positive_distance"] > 0:
            assert (
                cell[(b, 10.0)]["avg_positive_distance"]
                <= cell[(b, 2.5)]["avg_positive_distance"]
            )
