"""Tests for the command-line interface."""

import argparse
import inspect
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph.digraph import DynamicDiGraph
from repro.graph.io import read_edge_list, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    write_edge_list(DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)]), path)
    return str(path)


class TestQuery:
    def test_reachable_exit_zero(self, graph_file, capsys):
        assert main(["query", graph_file, "0", "3"]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_unreachable_exit_one(self, graph_file, capsys):
        assert main(["query", graph_file, "3", "0"]) == 1
        assert "not reachable" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "method", ["ifca", "bibfs", "tol", "ip", "dagger", "dbl"]
    )
    def test_every_exact_method(self, graph_file, method):
        assert main(["query", graph_file, "0", "3", "--method", method]) == 0

    def test_arrow_method_runs(self, graph_file):
        # Approximate: only check it executes and returns a valid code.
        assert main(["query", graph_file, "0", "3", "--method", "arrow"]) in (0, 1)


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        assert main(["stats", graph_file, "--exact-clustering"]) == 0
        out = capsys.readouterr().out
        assert "vertices:" in out and "edges:" in out
        assert "clustering" in out

    def test_sampled_clustering_path(self, graph_file):
        assert main(["stats", graph_file]) == 0


class TestGenerate:
    @pytest.mark.parametrize("family", ["sbm", "pa", "star", "er"])
    def test_families(self, family, tmp_path):
        out = tmp_path / f"{family}.txt"
        args = ["generate", family, str(out), "--n", "60", "--block-size", "30"]
        assert main(args) == 0
        graph = read_edge_list(out)
        assert graph.num_vertices > 0
        assert graph.num_edges > 0

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "pa", str(a), "--n", "50", "--seed", "4"])
        main(["generate", "pa", str(b), "--n", "50", "--seed", "4"])
        assert read_edge_list(a) == read_edge_list(b)


class TestCompare:
    def test_compare_runs(self, capsys):
        code = main(
            [
                "compare",
                "EN",
                "--max-updates",
                "40",
                "--batches",
                "2",
                "--queries-per-batch",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("IFCA", "BiBFS", "TOL", "IP", "DAGGER"):
            assert name in out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "NOPE"])


class TestReproduce:
    def test_quick_run_writes_records(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["reproduce", "--quick", "--quiet", "--out", str(out)]) == 0
        written = list(out.glob("*.json"))
        assert len(written) >= 20
        # Every record is well-formed JSON with rows.
        import json

        for path in written[:5]:
            payload = json.loads(path.read_text())
            assert payload[0]["rows"]

    def test_report_renders_reproduce_output(self, tmp_path, capsys):
        out = tmp_path / "res"
        main(["reproduce", "--quick", "--quiet", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--results-dir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[fig01]" in text and "[tab03]" in text


class TestStatsRich:
    def test_extended_stats_fields(self, graph_file, capsys):
        main(["stats", graph_file, "--exact-clustering"])
        out = capsys.readouterr().out
        assert "SCCs" in out
        assert "reachable pairs" in out
        assert "degree tail exponent" in out


class TestMoreCli:
    def test_generate_rmat(self, tmp_path):
        out = tmp_path / "rmat.txt"
        assert main(["generate", "rmat", str(out), "--scale", "6"]) == 0
        assert read_edge_list(out).num_vertices > 0

    def test_report_markdown(self, tmp_path, capsys):
        from repro.experiments.records import ExperimentRecord, save_records

        save_records(
            [ExperimentRecord("x1", "demo", rows=[{"a": 1, "b": 2.5}])],
            tmp_path / "x1.json",
        )
        assert main(["report", "--results-dir", str(tmp_path), "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "## x1 — demo" in out
        assert "| a | b |" in out

    def test_report_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        assert "no experiment records" in capsys.readouterr().out


ROOT = Path(__file__).resolve().parent.parent


class TestKnobCensus:
    """The numbers ROADMAP's north star tracks, as a ratchet."""

    RATCHET = "lower the pin when you delete one, justify in the PR when you raise it"

    def test_service_constructor_parameters(self):
        from repro.service import ReachabilityService

        params = inspect.signature(ReachabilityService.__init__).parameters
        assert len(params) - 1 <= 15, self.RATCHET  # minus self

    def test_ifca_params_fields(self):
        import dataclasses

        from repro.core.params import IFCAParams

        assert len(dataclasses.fields(IFCAParams)) <= 15, self.RATCHET

    def test_engine_module_lines(self):
        import repro.service.engine as engine

        with open(engine.__file__, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) <= 1397, self.RATCHET

    def test_cli_flags(self):
        def flags(parser):
            count = 0
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    count += sum(flags(sub) for sub in action.choices.values())
                elif not isinstance(action, argparse._HelpAction):
                    count += 1
            return count

        assert flags(build_parser()) <= 68, self.RATCHET

    def test_every_service_parameter_has_a_production_caller(self):
        """A constructor parameter exists only where code outside the
        tests sets it; the three exempt ones are the graph and the two
        engine seams tests use to substitute a fake."""
        from repro.service import ReachabilityService

        names = set(inspect.signature(ReachabilityService.__init__).parameters)
        names -= {"self", "graph", "method_factory", "fallback_factory"}
        engine = (ROOT / "src/repro/service/engine.py").resolve()
        callers = "\n".join(
            path.read_text(encoding="utf-8")
            for top in ("src", "benchmarks")
            for path in sorted((ROOT / top).rglob("*.py"))
            if path.resolve() != engine
        )
        unset = sorted(
            name for name in names
            if not re.search(rf"\b{name}=", callers)
        )
        assert unset == [], "delete them or give them a caller"

    def test_deleted_knobs_stay_deleted(self):
        # Each name is split so that this file does not match itself.
        gone = re.compile("|".join((
            "Stage" + "Policy", "stage" + "_policies", "Service" + "Timeout",
            "write" + "_timeout", "serve" + "-bench",
        )))
        hits = [
            f"{path.relative_to(ROOT)}:{number}"
            for top in ("src", "tests", ".github")
            for path in sorted((ROOT / top).rglob("*"))
            if path.is_file() and path.suffix in (".py", ".yml", ".yaml")
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1
            )
            if gone.search(line)
        ]
        assert hits == []


class TestBenchmarkContract:
    """``benchmarks/e2e`` builds its own fast-path pruner with the
    ``serve`` defaults and assumes the server's matches: a pair it mines
    as "searchable" must reach the server's search rungs."""

    def test_serve_defaults_match_the_benchmark(self):
        import ast

        source = (ROOT / "benchmarks/e2e/inputs.py").read_text(encoding="utf-8")
        bench = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SERVE_SUPPORTIVE", "SERVE_SEED")
        }
        args = build_parser().parse_args(["serve", "g.txt"])
        assert (args.supportive, args.seed) == (
            bench["SERVE_SUPPORTIVE"], bench["SERVE_SEED"]
        )


class TestNumpyIsADependency:
    """numpy is declared in ``pyproject.toml``: no code path, test or CI
    leg may exist only for its absence."""

    # Each name is split so that this file does not match itself.
    GATES = re.compile(
        "|".join(
            ("REPRO_NO" + "_NUMPY", "HAVE" + "_NUMPY", "kernels" + "_enabled",
             "labels" + "_available")
        )
    )

    def test_no_gate_survives(self):
        hits = [
            f"{path.relative_to(ROOT)}:{number}"
            for top in ("src", "tests", ".github")
            for path in sorted((ROOT / top).rglob("*"))
            if path.is_file() and path.suffix in (".py", ".yml", ".yaml")
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1
            )
            if self.GATES.search(line)
        ]
        assert hits == []

    def test_ci_has_no_numpy_axis(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        assert "matrix.numpy" not in ci
        assert not re.search(r"^\s+numpy:", ci, flags=re.M)

    def test_numpy_is_declared(self):
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^dependencies = \["numpy"\]$', pyproject, flags=re.M)
