"""Fig. 1 — the motivating example: frontier expansion in edge accesses.

Paper shape: on the Highschool graph, the push baseline reaches the
intra-community destination in far fewer edge accesses than BFS (18 vs 344
in the paper), while on the inter-community destination the large-epsilon
baseline terminates with a false negative and the small-epsilon baseline
spends more accesses than BFS.
"""

from benchmarks.conftest import paper_params


@paper_params("fig01")
def test_fig01_motivating_example(run_paper, entry):
    rows = run_paper(entry)
    by_key = {(r["query"], r["method"]): r for r in rows}
    intra_bfs = by_key[("intra-community", "BFS")]
    intra_small = by_key[("intra-community", "Baseline@eps-small")]
    intra_large = by_key[("intra-community", "Baseline@eps-large")]
    inter_bfs = by_key[("inter-community", "BFS")]
    inter_small = by_key[("inter-community", "Baseline@eps-small")]
    inter_large = by_key[("inter-community", "Baseline@eps-large")]

    # Intra-community: baseline wins at both epsilon values.
    assert intra_small["reached"] and intra_large["reached"]
    assert intra_small["edge_accesses"] < intra_bfs["edge_accesses"]
    assert intra_large["edge_accesses"] < intra_bfs["edge_accesses"]
    # Inter-community: large epsilon false-negatives; small epsilon reaches
    # the destination but pays more accesses than BFS.
    assert not inter_large["reached"]
    assert inter_small["reached"]
    assert inter_small["edge_accesses"] > inter_bfs["edge_accesses"]
