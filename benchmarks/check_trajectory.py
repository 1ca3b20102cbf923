"""Bench-trajectory regression gate.

Compares freshly emitted ``results/*.json`` records against a baseline
copy (the committed results, snapshotted before the bench run) and fails
when a performance claim regressed by more than the tolerance.

Two classes of metric:

* **Ratio metrics** (``speedup_vs_scalar``, ``speedup_vs_single``,
  ``speedup_vs_nolabels``) are machine-portable — a 6x speedup should
  be ~6x on any host — so they gate the build: a fresh ratio below
  ``(1 - tolerance)`` of the committed one fails.
* **Absolute metrics** (``queries_per_s``) depend on the host and are
  reported for trend-watching, never gated, unless ``--strict`` is given
  (same-machine comparisons only).

Usage (CI)::

    cp -r results /tmp/bench-baseline
    pytest benchmarks/bench_batch.py benchmarks/bench_shard.py ...
    python benchmarks/check_trajectory.py --baseline /tmp/bench-baseline

Rows are matched by ``measurement`` plus whichever discriminator columns
(``strategy``, ``shards``) the row carries; experiments present only on
one side are reported and skipped (a brand-new bench has no baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

GATED_METRICS = (
    "speedup_vs_scalar",
    "speedup_vs_single",
    "speedup_vs_nolabels",
)
REPORTED_METRICS = ("queries_per_s",)
KEY_COLUMNS = ("measurement", "strategy", "shards")


def _load_rows(path: Path) -> List[dict]:
    with path.open() as fh:
        records = json.load(fh)
    rows: List[dict] = []
    for record in records:
        rows.extend(record.get("rows", []))
    return rows


def _row_key(row: dict) -> Tuple:
    return tuple((c, row[c]) for c in KEY_COLUMNS if c in row)


def _index(rows: List[dict]) -> Dict[Tuple, dict]:
    return {_row_key(row): row for row in rows if _row_key(row)}


def compare_experiment(
    name: str,
    baseline_rows: List[dict],
    fresh_rows: List[dict],
    tolerance: float,
    strict: bool,
) -> List[str]:
    """Return failure messages for one experiment's row-by-row compare."""
    failures: List[str] = []
    gated = GATED_METRICS + (REPORTED_METRICS if strict else ())
    baseline_index = _index(baseline_rows)
    for key, fresh in _index(fresh_rows).items():
        base = baseline_index.get(key)
        if base is None:
            continue  # new row: nothing committed to regress against
        label = f"{name} {dict(key)}"
        for metric in dict.fromkeys(gated + REPORTED_METRICS):
            old, new = base.get(metric), fresh.get(metric)
            if not isinstance(old, (int, float)) or not isinstance(
                new, (int, float)
            ):
                continue
            if old <= 0:
                continue
            ratio = new / old
            verdict = "ok"
            if ratio < 1.0 - tolerance:
                if metric in gated:
                    verdict = "FAIL"
                    failures.append(
                        f"{label}: {metric} regressed {old:.3g} -> {new:.3g} "
                        f"({ratio:.0%} of baseline, tolerance {1 - tolerance:.0%})"
                    )
                else:
                    verdict = "drift (not gated)"
            print(
                f"  {label}: {metric} {old:.3g} -> {new:.3g} "
                f"[{ratio:.0%}] {verdict}"
            )
    return failures


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        required=True,
        type=Path,
        help="directory holding the committed results snapshot",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "results",
        help="directory holding the freshly emitted results",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression on gated metrics (default 0.20)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also gate absolute metrics (same-machine comparisons only)",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to check (default: every json in --results)",
    )
    args = parser.parse_args(argv)

    names = args.experiments or sorted(
        p.stem for p in args.results.glob("*.json")
    )
    failures: List[str] = []
    for name in names:
        fresh_path = args.results / f"{name}.json"
        base_path = args.baseline / f"{name}.json"
        if not fresh_path.exists():
            print(f"{name}: no fresh record (skipped)")
            continue
        if not base_path.exists():
            print(f"{name}: no committed baseline (skipped)")
            continue
        print(f"{name}:")
        failures.extend(
            compare_experiment(
                name,
                _load_rows(base_path),
                _load_rows(fresh_path),
                args.tolerance,
                args.strict,
            )
        )
    if failures:
        print("\ntrajectory regressions:", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("\ntrajectory ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
