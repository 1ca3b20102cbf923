"""The paper's evaluation (Sec. VI: Figs. 1-10, Tabs. II-IV) as one table.

:data:`PAPER` holds one :class:`PaperExperiment` per record the paper's
evaluation writes under ``results/``: its id, description and parameters
as committed, and the runner call that makes its rows, with every
dataset, sweep value, size and seed. Two entry points read it and write
through :func:`~repro.experiments.records.write_record`:

* ``python -m repro reproduce [--out results] [--quick]`` —
  :func:`run_all`, no pytest needed;
* the ``benchmarks/bench_fig*`` / ``bench_tab*`` files, which time one
  entry per test under pytest-benchmark and assert the paper's shape on
  its rows.

``--quick`` shrinks every workload count through :meth:`PaperRun.size`
and marks its records ``"quick": true``; sweep values stay as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.community.clustering import global_clustering_coefficient
from repro.datasets.registry import DATASET_ORDER, load_analog
from repro.dynamic.driver import DynamicWorkload
from repro.dynamic.events import TemporalEdgeStream, materialize
from repro.experiments.comparison import derive_table3, run_comparison_on_analog
from repro.experiments.figures import run_motivating_example
from repro.experiments.optimizations import run_optimization_ladder
from repro.experiments.oracle import run_cost_model_vs_oracle
from repro.experiments.parameter_study import (
    run_alpha_sweep,
    run_epsilon_pre_sweep,
    run_init_step_grid,
    run_push_turning_point,
)
from repro.experiments.qpu import INDEX_BASED, INDEX_FREE, run_qpu_sweep
from repro.experiments.records import ExperimentRecord, write_record
from repro.experiments.scalability import run_scalability
from repro.graph.digraph import DynamicDiGraph
from repro.workloads.queries import generate_queries, label_queries

PathLike = Union[str, Path]
Rows = List[Dict[str, Any]]

#: A quick run divides every workload count by this (never below 1).
QUICK_DIVISOR = 5


class PaperRun:
    """One pass over :data:`PAPER`: the sizes it runs at and the rows it
    has made so far (a derived record reads its sources' rows from here
    instead of measuring them again)."""

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick
        self.rows_by_id: Dict[str, Rows] = {}

    def size(self, n: int) -> int:
        """The count to run for a workload count of ``n`` in a full run."""
        return max(n // QUICK_DIVISOR, 1) if self.quick else n

    def rows(self, experiment_id: str) -> Rows:
        """The record's rows, made on first request."""
        if experiment_id not in self.rows_by_id:
            self.rows_by_id[experiment_id] = PAPER[experiment_id].run(self)
        return self.rows_by_id[experiment_id]

    def record(self, experiment_id: str) -> ExperimentRecord:
        entry = PAPER[experiment_id]
        parameters = dict(entry.parameters)
        if self.quick:
            parameters["quick"] = True
        return ExperimentRecord(
            experiment_id=experiment_id,
            description=entry.description,
            parameters=parameters,
            rows=self.rows(experiment_id),
        )


@dataclass(frozen=True)
class PaperExperiment:
    """One record of the paper's evaluation and how to make it."""

    experiment_id: str
    description: str
    #: Makes the rows; reads its sizes (and any source rows) off the run.
    run: Callable[[PaperRun], Rows]
    parameters: Dict[str, Any] = field(default_factory=dict)
    #: Columns the echoed table shows (all when ``None``).
    columns: Optional[Tuple[str, ...]] = None


# Sweep values -------------------------------------------------------------
EPSILON_PRE_VALUES = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
INVERSE_EPSILONS = [10, 30, 100, 300, 1000, 3000, 10000, 30000]
ALPHA_VALUES = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
INIT_MULTIPLIERS = [1.0, 10.0, 100.0, 1000.0]
STEP_VALUES = [10.0, 100.0, 1000.0]
BLOCK_SIZES = [100, 300, 1000]
DEGREES = [2.5, 5.0, 10.0]
COMPARISON_DATASETS = ("EN", "FL", "WT", "WG")


def _final_graph(code: str) -> DynamicDiGraph:
    _, initial, stream = load_analog(code, seed=0)
    return materialize(initial, stream)


def _tagged(rows: Rows, **tags: Any) -> Rows:
    for row in rows:
        row.update(tags)
    return rows


def _qpu_workload(code: str, run: PaperRun) -> DynamicWorkload:
    _, initial, stream = load_analog(code, seed=0)
    return DynamicWorkload(
        initial=initial,
        stream=TemporalEdgeStream(stream.events[: run.size(200)]),
        num_batches=4,
        queries_per_batch=run.size(25),
        seed=0,
    )


def dataset_statistics(run: PaperRun) -> Rows:
    """Tab. II for the twelve analogs: size, update counts, negative-query
    percentage and clustering coefficient."""
    rows = []
    for code in DATASET_ORDER:
        analog, initial, stream = load_analog(code, seed=0)
        final = materialize(initial, stream)
        queries = generate_queries(final, run.size(200), seed=1)
        batch = label_queries(final, queries)
        rows.append(
            {
                "code": code,
                "dataset": analog.paper_name,
                "category": analog.category,
                "n": final.num_vertices,
                "m_initial": initial.num_edges,
                "insertions": stream.num_insertions,
                "deletions": stream.num_deletions,
                "negative_pct": round(100 * batch.negative_fraction, 1),
                "clustering": round(global_clustering_coefficient(final), 5),
            }
        )
    return rows


def _entries() -> List[PaperExperiment]:
    entries = [
        PaperExperiment(
            "fig01",
            "BFS vs push baseline on the Highschool stand-in (edge accesses)",
            lambda run: run_motivating_example(),
        ),
        PaperExperiment(
            "tab02",
            "dataset analog statistics (cf. paper Tab. II)",
            dataset_statistics,
        ),
    ]
    for code in ("EN", "FL", "WG"):
        entries.append(PaperExperiment(
            f"fig02_{code}",
            f"avg query time varying epsilon_pre on the {code} analog",
            lambda run, code=code: _tagged(run_epsilon_pre_sweep(
                _final_graph(code), EPSILON_PRE_VALUES,
                num_queries=run.size(60), seed=1,
            ), dataset=code),
            {"epsilon_pre_values": EPSILON_PRE_VALUES},
        ))
    for code in ("EN", "FL", "WT"):
        entries.append(PaperExperiment(
            f"fig03_{code}",
            f"avg push time varying 1/epsilon on the {code} analog",
            lambda run, code=code: _tagged(run_push_turning_point(
                _final_graph(code), INVERSE_EPSILONS,
                num_sources=run.size(100), seed=2,
            ), dataset=code),
            {"inverse_epsilons": INVERSE_EPSILONS},
        ))
    for code in ("EN", "FL", "WT"):
        entries.append(PaperExperiment(
            f"fig04_{code}",
            f"avg query time varying alpha on the {code} analog",
            lambda run, code=code: _tagged(run_alpha_sweep(
                _final_graph(code), ALPHA_VALUES,
                num_queries=run.size(60), seed=3,
            ), dataset=code),
            {"alpha_values": ALPHA_VALUES},
        ))
    for code in ("EN", "WG"):
        entries.append(PaperExperiment(
            f"fig05_{code}",
            f"avg query time over the epsilon_init x step grid on the {code} analog",
            lambda run, code=code: _tagged(run_init_step_grid(
                _final_graph(code), INIT_MULTIPLIERS, STEP_VALUES,
                num_queries=run.size(40), seed=4,
            ), dataset=code),
            {
                "epsilon_init_multipliers": INIT_MULTIPLIERS,
                "step_values": STEP_VALUES,
            },
        ))
    for code in COMPARISON_DATASETS:
        entries.append(PaperExperiment(
            f"fig06_{code}",
            f"avg update + query time per method on the {code} analog",
            lambda run, code=code: run_comparison_on_analog(
                code, num_batches=4, queries_per_batch=run.size(30), seed=0,
                max_updates=run.size(250),
            ),
            columns=(
                "dataset", "method", "avg_update_ms", "avg_query_ms",
                "avg_pos_query_ms", "avg_neg_query_ms", "accuracy",
            ),
        ))
    entries.append(PaperExperiment(
        "tab03",
        "IFCA vs BiBFS average query time and speedups",
        lambda run: derive_table3([
            row for code in COMPARISON_DATASETS
            for row in run.rows(f"fig06_{code}")
        ]),
    ))
    for code in ("EN", "FL", "WT"):
        for substrate in ("dict", "kernel"):
            suffix = "_kernel" if substrate == "kernel" else ""
            entries.append(PaperExperiment(
                f"fig07_{code}{suffix}",
                f"precision vs avg query time of Base/Contract/IFCA on the "
                f"{code} analog ({substrate} substrate)",
                lambda run, code=code, substrate=substrate: _tagged(
                    run_optimization_ladder(
                        _final_graph(code), num_queries=run.size(50), seed=5,
                        use_kernels=substrate == "kernel",
                    ),
                    dataset=code, substrate=substrate,
                ),
            ))
    for code in COMPARISON_DATASETS:
        entries.append(PaperExperiment(
            f"tab04_{code}",
            f"oracle / IFCA / Contract / BiBFS avg query time (ms) on the "
            f"{code} analog",
            lambda run, code=code: _tagged([run_cost_model_vs_oracle(
                _final_graph(code), num_queries=run.size(40), seed=6,
                max_switch_round=4,
            )], dataset=code),
            columns=("dataset", "oracle_ms", "ifca_ms", "contract_ms", "bibfs_ms"),
        ))
    for code in ("EN", "WT"):
        entries.append(PaperExperiment(
            f"fig08_{code}",
            f"total time (one update + QpU queries) vs QpU on the {code} analog",
            lambda run, code=code: run_qpu_sweep(
                _qpu_workload(code, run), ["IFCA", *INDEX_BASED],
                dataset=code,
            ),
        ))
        entries.append(PaperExperiment(
            f"fig09_{code}",
            f"total time (one update + QpU queries) vs QpU, index-free "
            f"methods, {code} analog",
            lambda run, code=code: run_qpu_sweep(
                _qpu_workload(code, run), list(INDEX_FREE),
                dataset=code,
            ),
        ))
    entries.append(PaperExperiment(
        "fig10",
        "IFCA avg query time on two-block SBMs varying n and d_avg",
        lambda run: run_scalability(
            BLOCK_SIZES, DEGREES, num_queries=run.size(40), epsilon_pre=1e-4,
            seed=7,
        ),
        {"block_sizes": BLOCK_SIZES, "degrees": DEGREES},
    ))
    return entries


#: Every record of the paper's evaluation, by id, in run order.
PAPER: Dict[str, PaperExperiment] = {e.experiment_id: e for e in _entries()}


def run_all(
    out_dir: PathLike = "results",
    quick: bool = False,
    echo: Optional[Callable[[str], None]] = print,
) -> List[ExperimentRecord]:
    """Make and write every record of :data:`PAPER`; returns them.

    ``quick`` shrinks workload counts for smoke runs. ``echo=None``
    silences the progress tables.
    """
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    run = PaperRun(quick=quick)
    records = []
    for experiment_id, entry in PAPER.items():
        record = run.record(experiment_id)
        write_record(record, out, columns=entry.columns, echo=echo)
        records.append(record)
    return records
