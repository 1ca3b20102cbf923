"""Shared benchmark plumbing.

``bench_paper.py`` times one entry of
:data:`repro.experiments.reproduce.PAPER` per test (a single pedantic
round) and checks the entry's claims on its rows; the other benches run
their own studies. Both write ``results/<experiment>.json`` through
:func:`repro.experiments.records.write_record`, the record writer
``python -m repro reproduce`` uses too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.experiments.records import ExperimentRecord, write_record
from repro.experiments.reproduce import PaperExperiment, PaperRun

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def paper_run() -> PaperRun:
    """One full-size run shared by the session's paper tests, so a
    derived record (Tab. III) reads the rows its sources already made."""
    return PaperRun()


@pytest.fixture
def run_paper(benchmark, paper_run, results_dir):
    """Time one paper entry, write its record, and return its rows."""

    def _run(entry: PaperExperiment) -> List[Dict[str, Any]]:
        once(benchmark, paper_run.rows, entry.experiment_id)
        record = paper_run.record(entry.experiment_id)
        print()
        write_record(record, results_dir, columns=entry.columns)
        return record.rows

    return _run


@pytest.fixture
def emit(results_dir):
    """Print a paper-style table and persist the record as JSON."""

    def _emit(
        experiment_id: str,
        description: str,
        rows: List[Dict[str, Any]],
        parameters: Dict[str, Any] = None,
        columns=None,
    ) -> None:
        record = ExperimentRecord(
            experiment_id=experiment_id,
            description=description,
            parameters=parameters or {},
            rows=rows,
        )
        print()
        write_record(record, results_dir, columns=columns)

    return _emit


def once(benchmark, func, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
