"""Fig. 7 — precision vs. average query time of the proposed techniques.

Paper shape conclusions this bench asserts:

* Base is competitive at 90% accuracy but "orders of magnitude slower than
  IFCA at 100% accuracy" — exact answering via epsilon-lowering is brutal;
* Contract guarantees 100% accuracy and beats Base@100%;
* IFCA (adding cost-based strategy selection) beats Contract.
"""

from repro.datasets.registry import COMMUNITY, REGISTRY

from benchmarks.conftest import paper_params


@paper_params("fig07")
def test_fig07_optimization_ladder(run_paper, entry):
    rows = run_paper(entry)
    by_method = {r["method"]: r for r in rows}
    assert by_method["Base@90%"]["precision"] >= 0.9
    assert by_method["Base@100%"]["precision"] == 1.0
    assert by_method["Contract"]["precision"] == 1.0
    assert by_method["IFCA"]["precision"] == 1.0
    # Strategy selection never loses to pure contraction.
    assert (
        by_method["IFCA"]["avg_query_time_ms"]
        <= by_method["Contract"]["avg_query_time_ms"] * 1.2
    )
    if REGISTRY[rows[0]["dataset"]].category == COMMUNITY:
        # On community graphs, exact answering by Base needs a tiny epsilon
        # and is far slower than IFCA (the paper's "orders of magnitude").
        # On the no-community analogs the cones are so small that Base's
        # exhaustive push is already exact at large epsilon, so the gap
        # only appears at the paper's scale.
        assert (
            by_method["Base@100%"]["avg_query_time_ms"]
            > by_method["IFCA"]["avg_query_time_ms"]
        )
