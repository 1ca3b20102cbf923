"""Fig. 4 — average query time varying the teleportation constant ``alpha``.

Paper shape: small alphas perform comparably; beyond ``alpha > 0.5`` the
query time climbs sharply (random walks halt too eagerly, so the guided
frontier advances too slowly), except on WT where the effect is flat.
"""

from benchmarks.conftest import paper_params


@paper_params("fig04")
def test_fig04_alpha_sweep(run_paper, entry):
    rows = run_paper(entry)
    assert len(rows) == len(entry.parameters["alpha_values"])
