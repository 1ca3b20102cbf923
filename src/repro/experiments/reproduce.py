"""The paper's evaluation (Sec. VI: Figs. 1-10, Tabs. II-IV) as one table.

:data:`PAPER` holds one :class:`PaperExperiment` per record the paper's
evaluation writes under ``results/``: its id, description and parameters
as committed, the runner call that makes its rows, with every dataset,
sweep value, size and seed, and the paper's claims about them. Two entry
points read it and write through
:func:`~repro.experiments.records.write_record`:

* ``python -m repro reproduce [--out results] [--quick]`` —
  :func:`run_all`, no pytest needed;
* ``benchmarks/bench_paper.py``, which times one entry per test and
  fails on a claim whose verdict is not the expected one.

``--quick`` shrinks every workload count through :meth:`PaperRun.size`
and marks its records ``"quick": true``; sweep values stay as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.community.clustering import global_clustering_coefficient
from repro.datasets.registry import COMMUNITY, DATASET_ORDER, REGISTRY, load_analog
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
from repro.experiments.qpu import INDEX_BASED, INDEX_FREE, crossover_qpu, run_qpu_sweep
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
class Claim:
    """One statement of the paper, tested on a record's rows."""

    #: The paper's sentence the predicate tests.
    sentence: str
    holds: Callable[[Rows], bool]
    #: Why the claim fails at analog scale; non-empty marks it as expected to.
    deviation: str = ""


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
    claims: Tuple[Claim, ...] = ()

    def surprises(self, rows: Rows) -> List[str]:
        """The claims whose verdict on ``rows`` is not the expected one:
        a claim that should hold fails, or a deviation holds."""
        verdicts = [(claim, claim.holds(rows)) for claim in self.claims]
        return [
            f"{self.experiment_id} {'holds' if held else 'fails'}: {claim.sentence}"
            for claim, held in verdicts if held == bool(claim.deviation)
        ]


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

# Claims: one per statement of the paper about a record; "here:" names the bar
# tested at analog scale. Only gaps timing noise cannot close are deviations.


def _at(rows: Rows, **match: Any) -> Dict[str, Any]:
    """The one row whose columns equal ``match``."""
    [row] = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return row


def _ratio(rows: Rows, column: str, over: str, under: str, **match: Any) -> float:
    """``column`` of method ``over`` over that of method ``under``."""
    return _at(rows, method=over, **match)[column] / _at(rows, method=under, **match)[column]


def _spread(rows: Rows, column: str) -> float:
    values = [r[column] for r in rows]
    return max(values) / max(min(values), 1e-9)


def _crossings_above(rows: Rows, qpu: float) -> bool:
    crossings = [crossover_qpu(rows, "IFCA", m) for m in ("TOL", "IP")]
    return all(q is None or q > qpu for q in crossings)


def _denser(rows: Rows, column: str) -> bool:
    """``column`` does not rise from degree 2.5 to 10 at any block size."""
    return all(_at(rows, block_size=b, avg_degree=10.0)[column]
               <= _at(rows, block_size=b, avg_degree=2.5)[column] for b in BLOCK_SIZES)


INTRA, INTER = "intra-community", "inter-community"
LARGE, SMALL = "Baseline@eps-large", "Baseline@eps-small"
FIG01_CLAIMS = (
    Claim("Intra-community pair: the push baseline reaches the destination at both "
          "epsilons in fewer edge accesses than BFS (18 vs 344 in the paper).",
          lambda rows: all(r["reached"] and _ratio(
              rows, "edge_accesses", r["method"], "BFS", query=INTRA) < 1
              for r in rows if r["query"] == INTRA and r["method"] != "BFS")),
    Claim("Inter-community pair: the large-epsilon baseline terminates with a false "
          "negative; the small-epsilon one reaches the destination but spends more "
          "edge accesses than BFS.", lambda rows: (
              not _at(rows, query=INTER, method=LARGE)["reached"]
              and _at(rows, query=INTER, method=SMALL)["reached"]
              and _ratio(rows, "edge_accesses", SMALL, "BFS", query=INTER) > 1)),
)
FIG02_CLAIMS = (Claim(
    "Query time is measured for epsilon_pre from 1e-1 to 1e-4.", lambda rows:
    [r["epsilon_pre"] for r in rows if r["avg_query_time_ms"] > 0] == EPSILON_PRE_VALUES),)
FIG03_CLAIMS = (
    Claim("Push work grows as epsilon shrinks.", lambda rows: all(
        a["avg_edge_accesses"] <= b["avg_edge_accesses"] for a, b in zip(rows, rows[1:]))),
    Claim("Before the turning point the growth is sublinear (here: over the sweep, push "
          "work grows slower than 1/epsilon).", lambda rows: rows[-1]["avg_edge_accesses"]
          / max(rows[0]["avg_edge_accesses"], 1) < INVERSE_EPSILONS[-1] / INVERSE_EPSILONS[0]),
)
FIG04_SWEEP = Claim("Query time is measured for alpha from 0.05 to 0.9.", lambda rows:
                    [r["alpha"] for r in rows if r["avg_query_time_ms"] > 0] == ALPHA_VALUES)
FIG04_SHARP = Claim(
    "Beyond alpha 0.5 the query time climbs sharply (here: at least 2x).",
    lambda rows: max(r["avg_query_time_ms"] for r in rows if r["alpha"] > 0.5)
    >= 2 * min(r["avg_query_time_ms"] for r in rows if r["alpha"] <= 0.5),
    "alpha acts only inside the guided search, and at analog scale the cost "
    "model sends most queries to BiBFS before it can")
FIG05_CLAIMS = (Claim(
    "The impact of epsilon_init and step is insignificant (here: the grid stays within 10x).",
    lambda rows: _spread(rows, "avg_query_time_ms") < 10),)
FIG06_CLAIMS = (
    Claim("Every exact method (IFCA, BiBFS, TOL, IP, DAGGER) keeps accuracy 1.0.",
          lambda rows: all(r["accuracy"] == 1 for r in rows if r["method"] != "ARROW")),
    Claim("TOL's and IP's update time dominates their own query time (here: over 5x) "
          "and the index-free methods' (here: over 10x IFCA's).", lambda rows: all(
              r["avg_update_ms"] > 5 * r["avg_query_ms"]
              and _ratio(rows, "avg_update_ms", r["method"], "IFCA") > 10
              for r in rows if r["method"] in ("TOL", "IP"))),
    Claim("Index-free updates are adjacency-only and mutually comparable (here: IFCA "
          "within 20x of BiBFS).",
          lambda rows: _ratio(rows, "avg_update_ms", "IFCA", "BiBFS") < 20),
    Claim("IFCA's query time is at least comparable to BiBFS's (here: within 12x).",
          lambda rows: _ratio(rows, "avg_query_ms", "IFCA", "BiBFS") < 12),
)
TAB03_CLAIMS = (
    Claim("Speedups are reported for each comparison dataset.", lambda rows:
          sorted(r["dataset"] for r in rows) == sorted(COMPARISON_DATASETS)),
    Claim("IFCA is faster than BiBFS on positive queries on every dataset "
          "(1.13-8.10x).", lambda rows: all(r["pos_speedup"] >= 1.13 for r in rows),
          "a community of the analogs holds too few edges for the guided search to "
          "amortize, so the cost model rightly routes positives to BiBFS (Tab. IV), "
          "and CPython's larger lambda shifts the trade further toward BiBFS"),
)
FIG07_CLAIMS = (
    Claim("Base at its 90 % epsilon keeps precision at or above 0.9; Contract and "
          "IFCA are exact, as is Base at its 100 % epsilon.", lambda rows: all(
              r["precision"] >= (0.9 if r["method"] == "Base@90%" else 1) for r in rows)),
    Claim("IFCA's cost-based strategy selection beats Contract (here: never slower "
          "by over 20 %).",
          lambda rows: _ratio(rows, "avg_query_time_ms", "IFCA", "Contract") <= 1.2),
)
FIG07_BASE_EXACT = Claim(
    "Exact answering by Base is slower than IFCA (the paper: orders of magnitude).",
    lambda rows: _ratio(rows, "avg_query_time_ms", "Base@100%", "IFCA") > 1)
TAB04_CLAIMS = (
    Claim("The per-query oracle lower-bounds every strategy (here: within 25 % "
          "timing slack).", lambda rows: all(r["oracle_ms"] <= 1.25 * min(
              r["ifca_ms"], r["contract_ms"], r["bibfs_ms"]) for r in rows)),
    Claim("IFCA's cost model is never the worst of the strategies (here: within "
          "10 %).", lambda rows: all(
              r["ifca_ms"] <= 1.1 * max(r["contract_ms"], r["bibfs_ms"]) for r in rows)),
)
FIG08_CLAIMS = (
    Claim("At QpU 1 the lines start in update-cost order: TOL's and IP's far above "
          "IFCA's (here: over 10x), DAGGER's above IFCA's.", lambda rows: all(
              _ratio(rows, "avg_update_ms", m, "IFCA", qpu=1) > bar
              for m, bar in (("TOL", 10), ("IP", 10), ("DAGGER", 1)))),
    Claim("TOL and IP do not catch IFCA below QpU 10.",
          lambda rows: _crossings_above(rows, 10)),
    Claim("TOL and IP catch IFCA only above QpU 1 000 on most datasets.",
          lambda rows: _crossings_above(rows, 1000), "the analogs are about 10^4x "
          "smaller than the paper's graphs, and an index rebuild shrinks with the "
          "graph faster than a query does"),
)
FIG09_CLAIMS = (
    Claim("Each index-free method (IFCA, BiBFS, ARROW) has a line, and all start at "
          "nearly the same update cost (here: within 25x).", lambda rows:
          {r["method"] for r in rows} == set(INDEX_FREE)
          and _spread(rows, "avg_update_ms") < 25),
    Claim("IFCA's line tracks BiBFS's over the QpU range (here: within 12x at QpU 1, "
          "100 and 1 000).", lambda rows: all(
              _ratio(rows, "total_ms", "IFCA", "BiBFS", qpu=q) < 12 for q in (1, 100, 1000))),
)
FIG10_CLAIMS = (
    Claim("Query time grows with the number of vertices (here: at degree 5).", lambda rows:
          _at(rows, block_size=BLOCK_SIZES[-1], avg_degree=5.0)["avg_query_time_ms"]
          > _at(rows, block_size=BLOCK_SIZES[0], avg_degree=5.0)["avg_query_time_ms"]),
    Claim("Denser graphs have fewer negative queries.",
          lambda rows: _denser(rows, "negative_fraction")),
    Claim("Positive pairs get closer as the graph gets denser.",
          lambda rows: _denser(rows, "avg_positive_distance")),
)
TAB02_CLAIMS = (
    Claim("The twelve datasets appear in the paper's order, each stream with both "
          "insertions and deletions.", lambda rows: [r["code"] for r in rows]
          == list(DATASET_ORDER)
          and all(min(r["insertions"], r["deletions"]) > 0 for r in rows)),
    Claim("A clustering coefficient of at least 0.01 marks exactly the datasets with "
          "discernible communities.", lambda rows: all(
              (r["clustering"] >= 0.01) == (r["category"] == COMMUNITY) for r in rows)),
)


def _entries() -> List[PaperExperiment]:
    entries = [
        PaperExperiment(
            "fig01",
            "BFS vs push baseline on the Highschool stand-in (edge accesses)",
            lambda run: run_motivating_example(),
            claims=FIG01_CLAIMS,
        ),
        PaperExperiment(
            "tab02",
            "dataset analog statistics (cf. paper Tab. II)",
            dataset_statistics,
            claims=TAB02_CLAIMS,
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
            claims=FIG02_CLAIMS,
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
            claims=FIG03_CLAIMS,
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
            claims=(FIG04_SWEEP,) + ((FIG04_SHARP,) if code != "WT" else ()),
        ))
    for code in ("EN", "WG"):
        entries.append(PaperExperiment(
            f"fig05_{code}",
            f"avg query time over the epsilon_init x step grid on the {code} analog",
            lambda run, code=code: _tagged(run_init_step_grid(
                _final_graph(code), INIT_MULTIPLIERS, STEP_VALUES,
                num_queries=run.size(40), seed=4,
            ), dataset=code),
            {"epsilon_init_multipliers": INIT_MULTIPLIERS, "step_values": STEP_VALUES},
            claims=FIG05_CLAIMS,
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
            claims=FIG06_CLAIMS,
        ))
    entries.append(PaperExperiment(
        "tab03",
        "IFCA vs BiBFS average query time and speedups",
        lambda run: derive_table3([
            row for code in COMPARISON_DATASETS
            for row in run.rows(f"fig06_{code}")
        ]),
        claims=TAB03_CLAIMS,
    ))
    for code in ("EN", "FL", "WT"):
        # Elsewhere the cones are so small Base is exact at large epsilon.
        community = REGISTRY[code].category == COMMUNITY
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
                claims=FIG07_CLAIMS + ((FIG07_BASE_EXACT,) if community else ()),
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
            claims=TAB04_CLAIMS,
        ))
    for code in ("EN", "WT"):
        entries.append(PaperExperiment(
            f"fig08_{code}",
            f"total time (one update + QpU queries) vs QpU on the {code} analog",
            lambda run, code=code: run_qpu_sweep(
                _qpu_workload(code, run), ["IFCA", *INDEX_BASED],
                dataset=code,
            ),
            claims=FIG08_CLAIMS,
        ))
        entries.append(PaperExperiment(
            f"fig09_{code}",
            f"total time (one update + QpU queries) vs QpU, index-free "
            f"methods, {code} analog",
            lambda run, code=code: run_qpu_sweep(
                _qpu_workload(code, run), list(INDEX_FREE),
                dataset=code,
            ),
            claims=FIG09_CLAIMS,
        ))
    entries.append(PaperExperiment(
        "fig10",
        "IFCA avg query time on two-block SBMs varying n and d_avg",
        lambda run: run_scalability(
            BLOCK_SIZES, DEGREES, num_queries=run.size(40), epsilon_pre=1e-4,
            seed=7,
        ),
        {"block_sizes": BLOCK_SIZES, "degrees": DEGREES},
        claims=FIG10_CLAIMS,
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
