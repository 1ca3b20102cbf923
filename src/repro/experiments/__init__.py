"""Experiment harness: one runner per table/figure of the paper.

Every module exposes a ``run_*`` function returning plain data structures
(lists of row dicts) plus helpers to render them as text tables.
``reproduce.PAPER`` is the one table of the paper's records and their
runner calls; ``python -m repro reproduce`` and the paper benches under
``benchmarks/`` both run it. See DESIGN.md's per-experiment index for the
mapping.
"""

from repro.experiments.tables import format_table
from repro.experiments.records import ExperimentRecord, save_records
from repro.experiments.lambda_calibration import calibrate_lambda

__all__ = [
    "format_table",
    "ExperimentRecord",
    "save_records",
    "calibrate_lambda",
]
