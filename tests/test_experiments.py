"""Tests for the experiment harness (one runner per table/figure)."""

import pytest

from repro.datasets.highschool import highschool_graph
from repro.datasets.sbm import two_block_sbm
from repro.dynamic.events import TemporalEdgeStream, EdgeEvent
from repro.dynamic.driver import DynamicWorkload
from repro.experiments.comparison import (
    DEFAULT_METHODS,
    derive_table3,
    run_comparison,
    run_comparison_on_analog,
)
from repro.experiments.figures import run_motivating_example
from repro.experiments.lambda_calibration import calibrate_lambda
from repro.experiments.optimizations import run_optimization_ladder
from repro.experiments.oracle import oracle_query_time_ms, run_cost_model_vs_oracle
from repro.experiments.parameter_study import (
    run_alpha_sweep,
    run_epsilon_pre_sweep,
    run_init_step_grid,
    run_push_turning_point,
)
from repro.experiments.qpu import (
    DEFAULT_QPU_VALUES,
    INDEX_BASED,
    INDEX_FREE,
    crossover_qpu,
    run_qpu_sweep,
)
from repro.experiments.records import ExperimentRecord, load_records, save_records
from repro.experiments.scalability import run_scalability
from repro.experiments.tables import format_table
from repro.graph.digraph import DynamicDiGraph


@pytest.fixture(scope="module")
def small_workload():
    initial = two_block_sbm(30, 4.0, seed=1)
    events = [
        EdgeEvent(time=float(i), source=i % 30, target=(i * 7) % 60, insert=True)
        for i in range(1, 30)
        if i % 30 != (i * 7) % 60
    ]
    return DynamicWorkload(
        initial=initial,
        stream=TemporalEdgeStream(events),
        num_batches=2,
        queries_per_batch=5,
    )


class TestTables:
    def test_format_basic(self):
        rows = [{"a": 1, "b": 0.123456}, {"a": 2, "b": 1e-9}]
        text = format_table(rows, title="T")
        assert "T" in text and "a" in text and "0.1235" in text and "1e-09" in text

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]


class TestRecords:
    def test_round_trip(self, tmp_path):
        records = [
            ExperimentRecord(
                experiment_id="fig02",
                description="test",
                parameters={"x": 1},
                rows=[{"y": 2.0}],
            )
        ]
        path = tmp_path / "r.json"
        save_records(records, path)
        loaded = load_records(path)
        assert loaded[0].experiment_id == "fig02"
        assert loaded[0].rows == [{"y": 2.0}]


class TestLambdaCalibration:
    def test_ratio_positive(self):
        ratio = calibrate_lambda(two_block_sbm(50, 5.0, seed=2), repetitions=2)
        assert ratio >= 0.1


class TestFig1:
    def test_motivating_example_shape(self):
        rows = run_motivating_example()
        by_key = {(r["query"], r["method"]): r for r in rows}
        intra_bfs = by_key[("intra-community", "BFS")]
        intra_small = by_key[("intra-community", "Baseline@eps-small")]
        inter_large = by_key[("inter-community", "Baseline@eps-large")]
        inter_small = by_key[("inter-community", "Baseline@eps-small")]
        # Intra-community: the baseline reaches the target with fewer accesses.
        assert intra_small["reached"]
        assert intra_small["edge_accesses"] < intra_bfs["edge_accesses"]
        # Inter-community: large epsilon terminates early (false negative).
        assert not inter_large["reached"]
        # Small epsilon eventually reaches it.
        assert inter_small["reached"]

    def test_rows_complete(self):
        rows = run_motivating_example()
        assert len(rows) == 6  # 2 queries x (BFS + 2 epsilon settings)


class TestParameterStudies:
    @pytest.fixture(scope="class")
    def graph(self):
        return highschool_graph()

    def test_epsilon_pre_sweep(self, graph):
        rows = run_epsilon_pre_sweep(graph, [1e-2, 1e-3], num_queries=10)
        assert len(rows) == 2
        assert all(r["avg_query_time_ms"] > 0 for r in rows)

    def test_push_turning_point(self, graph):
        rows = run_push_turning_point(graph, [10, 100, 1000], num_sources=10)
        assert len(rows) == 3
        accesses = [r["avg_edge_accesses"] for r in rows]
        assert accesses == sorted(accesses)  # smaller epsilon => more work

    def test_push_turning_point_empty_graph(self):
        assert run_push_turning_point(DynamicDiGraph(), [10]) == []

    def test_alpha_sweep(self, graph):
        rows = run_alpha_sweep(graph, [0.1, 0.5], num_queries=10)
        assert [r["alpha"] for r in rows] == [0.1, 0.5]

    def test_init_step_grid(self, graph):
        rows = run_init_step_grid(graph, [1, 10], [10, 100], num_queries=5)
        assert len(rows) == 4


class TestFig7Ladder:
    def test_ladder_shape(self):
        graph = highschool_graph()
        rows = run_optimization_ladder(graph, num_queries=25, seed=1)
        by_method = {r["method"]: r for r in rows}
        assert set(by_method) == {"Base@90%", "Base@100%", "Contract", "IFCA"}
        # Exactness ladder: Contract and IFCA are exact.
        assert by_method["Contract"]["precision"] == 1.0
        assert by_method["IFCA"]["precision"] == 1.0
        assert by_method["Base@90%"]["precision"] >= 0.9


class TestTab4Oracle:
    def test_oracle_is_lower_bound(self):
        # Microsecond-scale queries are noisy; generous slack keeps the
        # structural claim (the oracle is a per-query minimum) testable.
        graph = two_block_sbm(40, 6.0, seed=3)
        row = run_cost_model_vs_oracle(graph, num_queries=40, max_switch_round=2)
        assert row["oracle_ms"] <= row["ifca_ms"] * 2.0
        assert row["oracle_ms"] <= row["contract_ms"] * 2.0
        assert row["oracle_ms"] <= row["bibfs_ms"] * 2.0

    def test_empty_queries(self):
        graph = DynamicDiGraph(edges=[(0, 1)])
        assert oracle_query_time_ms(graph, []) == 0.0


class TestComparison:
    def test_run_comparison_rows(self, small_workload):
        methods = {
            "IFCA": DEFAULT_METHODS["IFCA"],
            "BiBFS": DEFAULT_METHODS["BiBFS"],
        }
        rows = run_comparison(small_workload, methods, dataset="X", category="c")
        assert {r["method"] for r in rows} == {"IFCA", "BiBFS"}
        for row in rows:
            assert row["accuracy"] == 1.0
            assert row["num_queries"] == 10

    def test_derive_table3(self):
        rows = [
            {
                "dataset": "D",
                "method": "IFCA",
                "avg_pos_query_ms": 1.0,
                "avg_neg_query_ms": 2.0,
                "avg_query_ms": 1.5,
            },
            {
                "dataset": "D",
                "method": "BiBFS",
                "avg_pos_query_ms": 3.0,
                "avg_neg_query_ms": 4.0,
                "avg_query_ms": 3.5,
            },
        ]
        table = derive_table3(rows)
        assert table[0]["pos_speedup"] == pytest.approx(3.0)
        assert table[0]["neg_speedup"] == pytest.approx(2.0)

    def test_analog_comparison_small(self):
        rows = run_comparison_on_analog(
            "EN",
            methods={"BiBFS": DEFAULT_METHODS["BiBFS"]},
            num_batches=2,
            queries_per_batch=5,
            max_updates=40,
        )
        assert rows[0]["dataset"] == "EN"
        assert rows[0]["category"] == "community"


class TestQpU:
    def test_sweep_rows(self, small_workload):
        rows = run_qpu_sweep(
            small_workload, ["IFCA", "BiBFS"], qpu_values=[1, 10], dataset="X"
        )
        assert len(rows) == 4
        for row in rows:
            assert row["total_ms"] >= row["avg_update_ms"]

    def test_lines_monotone_in_qpu(self, small_workload):
        rows = run_qpu_sweep(small_workload, ["BiBFS"], qpu_values=[1, 100])
        assert rows[1]["total_ms"] > rows[0]["total_ms"]

    def test_crossover(self):
        rows = [
            {"method": "A", "avg_update_ms": 10.0, "avg_query_ms": 0.1},
            {"method": "B", "avg_update_ms": 0.0, "avg_query_ms": 1.1},
        ]
        # B catches A at q = 10 / 1 = 10.
        assert crossover_qpu(rows, "B", "A") == pytest.approx(10.0)
        assert crossover_qpu(rows, "A", "B") is None

    def test_method_groups(self):
        assert set(INDEX_BASED) == {"TOL", "IP", "DAGGER"}
        assert set(INDEX_FREE) == {"IFCA", "BiBFS", "ARROW"}
        assert 1000 in DEFAULT_QPU_VALUES


class TestScalability:
    def test_grid_rows(self):
        rows = run_scalability(
            block_sizes=[30], average_degrees=[2.5, 5.0], num_queries=8
        )
        assert len(rows) == 2
        assert all(r["n"] == 60 for r in rows)
        # The paper's explanatory stat: denser graphs have fewer negatives.
        assert rows[1]["negative_fraction"] <= rows[0]["negative_fraction"] + 0.2
