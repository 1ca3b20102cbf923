"""The paper's verdicts exist once, as claims on the table's entries.

Every claim of :data:`~repro.experiments.reproduce.PAPER` meets its
expectation on the committed records, and every ``<!-- record ID -->``
block of EXPERIMENTS.md is what ``repro report --markdown`` renders from
``results/ID.json``.
"""

import dataclasses
import difflib
import re
from pathlib import Path

from repro.experiments.records import load_records
from repro.experiments.report import render_markdown
from repro.experiments.reproduce import PAPER

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- record (\S+) -->\n.*?<!-- /record -->", re.S)


def committed(experiment_id):
    [record] = load_records(ROOT / "results" / f"{experiment_id}.json")
    return record


def surprises(paper):
    """The claims of ``paper`` whose verdict on the committed records is
    not the expected one."""
    return [
        surprise
        for experiment_id, entry in paper.items()
        for surprise in entry.surprises(committed(experiment_id).rows)
    ]


def render_diff(text):
    """A unified diff from ``text`` to ``text`` with every record block
    rendered afresh from the committed records; empty when they agree."""
    rendered = BLOCK.sub(lambda m: render_markdown(committed(m.group(1))), text)
    return "".join(difflib.unified_diff(
        text.splitlines(True), rendered.splitlines(True),
        "EXPERIMENTS.md", "rendered from results/",
    ))


def test_every_claim_meets_its_expectation_on_the_committed_records():
    assert surprises(PAPER) == []


def test_experiments_md_blocks_are_rendered_from_the_records():
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert sorted(BLOCK.findall(text)) == sorted(PAPER)
    diff = render_diff(text)
    assert diff == "", (
        "paste the blocks `python -m repro report --markdown` prints:\n" + diff
    )


class TestBinder:
    """Each check catches the change it guards against."""

    def test_a_claim_that_holds_marked_as_a_deviation_is_a_surprise(self):
        entry = PAPER["fig01"]
        claim = dataclasses.replace(entry.claims[0], deviation="by mistake")
        paper = {"fig01": dataclasses.replace(entry, claims=(claim,))}
        assert surprises(paper) == [f"fig01 holds: {claim.sentence}"]

    def test_a_deviation_expected_to_hold_is_a_surprise(self):
        entry = PAPER["tab03"]
        [deviation] = [c for c in entry.claims if c.deviation]
        claim = dataclasses.replace(deviation, deviation="")
        paper = {"tab03": dataclasses.replace(entry, claims=(claim,))}
        assert surprises(paper) == [f"tab03 fails: {claim.sentence}"]

    def test_one_digit_edited_inside_a_block_fails_the_render(self):
        text = EXPERIMENTS_MD.read_text(encoding="utf-8")
        assert render_diff(text) == ""
        row = text.index("| IFCA |", text.index("<!-- record fig06_EN -->"))
        at = re.compile(r"\d").search(text, row).start()
        edited = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
        assert render_diff(edited) != ""
