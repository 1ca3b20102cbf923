"""Render saved experiment records as a consolidated report.

Benchmarks persist their rows as ``results/<experiment>.json``;
:func:`render_report` re-reads them as text tables, or as the markdown
EXPERIMENTS.md is made of (:func:`render_markdown`). Exposed on the CLI
as ``python -m repro report``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.experiments.records import ExperimentRecord, load_records
from repro.experiments.reproduce import PAPER, Claim, Rows
from repro.experiments.tables import format_cell, format_table

PathLike = Union[str, Path]


def render_report(results_dir: PathLike, markdown: bool = False) -> str:
    """One table per record file, in experiment-id order.

    ``markdown=True`` emits GitHub-flavoured pipe tables with a heading per
    experiment (:func:`render_markdown`).
    """
    directory = Path(results_dir)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        return f"no experiment records under {directory}"
    sections: List[str] = []
    for path in paths:
        try:
            records = load_records(path)
        except (ValueError, TypeError) as exc:
            sections.append(f"[{path.name}] unreadable: {exc}")
            continue
        for record in records:
            if markdown:
                sections.append(render_markdown(record))
            else:
                sections.append(
                    format_table(
                        record.rows,
                        title=f"[{record.experiment_id}] {record.description}",
                    )
                )
    return "\n\n".join(sections)


def render_markdown(record: ExperimentRecord) -> str:
    """One record as markdown. A record of the paper's table is a block
    between ``<!-- record ID -->`` and ``<!-- /record -->``: its entry's
    columns, then one verdict line per claim."""
    entry = PAPER.get(record.experiment_id)
    heading = f"{record.experiment_id} — {record.description}"
    if entry is None:
        return f"## {heading}\n\n" + _markdown_table(record.rows)
    lines = [
        f"<!-- record {record.experiment_id} -->",
        f"### {heading}",
        "",
        _markdown_table(record.rows, entry.columns),
        "",
        *(f"- {_verdict(claim, record.rows)}" for claim in entry.claims),
        "<!-- /record -->",
    ]
    return "\n".join(lines)


def _verdict(claim: Claim, rows: Rows) -> str:
    held = claim.holds(rows)
    if claim.deviation:
        verdict = "**holds, though marked a deviation**" if held else "expected deviation"
        return f"{verdict}: {claim.sentence} Why: {claim.deviation}."
    return f"{'holds' if held else '**fails**'}: {claim.sentence}"


def _markdown_table(rows: List[dict], columns=None) -> str:
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    lines = ["| " + " | ".join(columns) + " |", "|" + " --- |" * len(columns)]
    for row in rows:
        cells = (format_cell(row.get(c, "")) for c in columns)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
