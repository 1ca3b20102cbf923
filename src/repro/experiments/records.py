"""Experiment result records and JSON persistence.

EXPERIMENTS.md is assembled from these records: every benchmark run can
dump its rows to ``results/*.json`` for later paper-vs-measured comparison.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.tables import format_table

PathLike = Union[str, Path]


@dataclass
class ExperimentRecord:
    """One experiment's identity plus its result rows."""

    experiment_id: str  # e.g. "fig06", "tab03"
    description: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=False)


def save_records(records: List[ExperimentRecord], path: PathLike) -> None:
    """Write a list of records as one JSON document."""
    payload = [asdict(r) for r in records]
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def write_record(
    record: ExperimentRecord,
    out_dir: PathLike,
    columns: Optional[Sequence[str]] = None,
    echo: Optional[Callable[[str], None]] = print,
) -> None:
    """Persist ``record`` as ``out_dir/<experiment_id>.json`` and echo it
    as a paper-style table (``echo=None`` writes silently)."""
    save_records([record], Path(out_dir) / f"{record.experiment_id}.json")
    if echo is not None:
        title = f"[{record.experiment_id}] {record.description}"
        echo(format_table(record.rows, columns=columns, title=title))
        echo("")


def load_records(path: PathLike) -> List[ExperimentRecord]:
    """Read records previously written by :func:`save_records`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [ExperimentRecord(**item) for item in payload]
