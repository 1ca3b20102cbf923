"""Tab. IV — the cost model against the per-query oracle.

Paper shape: the oracle lower-bounds everything; IFCA lands closest to it
on every dataset, with Contract (never switch) and BiBFS (switch at round
0) as the two extremes.
"""

from benchmarks.conftest import paper_params


@paper_params("tab04")
def test_tab04_cost_model_vs_oracle(run_paper, entry):
    [row] = run_paper(entry)
    # The oracle is a per-query minimum: nothing beats it (timing-noise slack).
    assert row["oracle_ms"] <= row["ifca_ms"] * 1.25
    assert row["oracle_ms"] <= row["contract_ms"] * 1.25
    assert row["oracle_ms"] <= row["bibfs_ms"] * 1.25
    # IFCA's cost model never ends up the worst of the three strategies.
    assert row["ifca_ms"] <= max(row["contract_ms"], row["bibfs_ms"]) * 1.1
