"""Fig. 8 — total time varying QpU: IFCA vs the index-based methods.

Paper shape: TOL's line starts highest, then IP's, then DAGGER's, then
IFCA's (update cost ordering); TOL/IP's lines are nearly flat (fast
queries) but the crossover with IFCA sits above QpU = 1000 on most
datasets because their update cost dominates IFCA's query cost.
"""

from repro.experiments.qpu import crossover_qpu

from benchmarks.conftest import paper_params


@paper_params("fig08")
def test_fig08_qpu_vs_index_based(run_paper, entry):
    rows = run_paper(entry)
    at_qpu1 = {r["method"]: r for r in rows if r["qpu"] == 1}
    # Update-cost ordering at the line's start: TOL and IP far above IFCA.
    assert at_qpu1["TOL"]["avg_update_ms"] > 10 * at_qpu1["IFCA"]["avg_update_ms"]
    assert at_qpu1["IP"]["avg_update_ms"] > 10 * at_qpu1["IFCA"]["avg_update_ms"]
    assert at_qpu1["DAGGER"]["avg_update_ms"] > at_qpu1["IFCA"]["avg_update_ms"]
    # The paper's headline: TOL/IP don't catch IFCA below QpU = 10 (on the
    # real graphs it is mostly QpU = 1000; analog scale compresses it).
    for indexed in ("TOL", "IP"):
        crossing = crossover_qpu(rows, "IFCA", indexed)
        assert crossing is None or crossing > 10
