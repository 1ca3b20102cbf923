"""The paper's evaluation (Sec. VI: Figs. 1-10, Tabs. II-IV), one test per
record of :data:`repro.experiments.reproduce.PAPER`.

Each test times its entry once, writes ``results/<id>.json``, and fails
on any claim whose verdict is not the expected one: a paper statement
that should hold and fails, or a documented deviation that starts to
hold (then the deviation's explanation is stale).
"""

import pytest

from repro.experiments.reproduce import PAPER


@pytest.mark.parametrize("experiment_id", sorted(PAPER))
def test_paper_claims(run_paper, experiment_id):
    entry = PAPER[experiment_id]
    assert entry.surprises(run_paper(entry)) == []
