"""Plain-text table rendering for experiment results.

The benchmarks print the same rows the paper reports; this module turns a
list of row dicts into an aligned monospace table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table.

    ``columns`` selects and orders the columns; by default the keys of the
    first row are used (dicts preserve insertion order).
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        cells.append([format_cell(row.get(c, "")) for c in columns])
    widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
    lines = []
    if title:
        lines.append(title)
    header, *body = cells
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
