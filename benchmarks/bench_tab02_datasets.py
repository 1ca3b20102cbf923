"""Tab. II — dataset statistics for the twelve analogs.

Regenerates the paper's dataset table for the scaled-down analogs: size,
update counts, negative-query percentage, and clustering coefficient, with
the paper's categorization rule (clustering >= 0.01 <=> discernible
communities) asserted per category.
"""

from repro.datasets.registry import DATASET_ORDER, REGISTRY

from benchmarks.conftest import paper_params


@paper_params("tab02")
def test_tab02_dataset_statistics(run_paper, entry):
    rows = run_paper(entry)
    assert [row["code"] for row in rows] == list(DATASET_ORDER)
    for row in rows:
        expected_community = REGISTRY[row["code"]].category == "community"
        assert (row["clustering"] >= 0.01) == expected_community, row
        assert row["insertions"] > 0
        assert row["deletions"] > 0
