"""Tests for the command-line interface."""

import argparse
import ast
import importlib.util
import inspect
import re
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

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

    @pytest.mark.parametrize("command", ["query-batch", "chaos"])
    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_deadline_ms_is_finite_and_non_negative(self, command, bad, capsys):
        argv = [command, "g.txt"] + (["pairs.txt"] if command == "query-batch" else [])
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--deadline-ms", bad])
        assert "--deadline-ms" in capsys.readouterr().err
        for good in ("0", "2.5"):
            args = build_parser().parse_args(argv + ["--deadline-ms", good])
            assert args.deadline_ms == float(good)


RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """The directory one ``repro reproduce --quick`` wrote, shared by
    every test that reads a quick run."""
    out = tmp_path_factory.mktemp("reproduce") / "res"
    assert main(["reproduce", "--quick", "--quiet", "--out", str(out)]) == 0
    return out


class TestReproduce:
    def test_every_committed_paper_record_has_one_table_entry(self):
        from repro.experiments.records import load_records
        from repro.experiments.reproduce import PAPER

        committed = sorted(RESULTS_DIR.glob("fig*.json")) + sorted(
            RESULTS_DIR.glob("tab*.json")
        )
        assert len(committed) == 33
        for path in committed:
            [record] = load_records(path)
            entry = PAPER[record.experiment_id]
            assert path.stem == entry.experiment_id
            assert record.description == entry.description, path.name
            assert record.parameters == entry.parameters, path.name
        assert sorted(PAPER) == sorted(path.stem for path in committed)

    def test_quick_run_writes_records(self, quick_run):
        from repro.experiments.records import load_records
        from repro.experiments.reproduce import PAPER

        written = sorted(quick_run.glob("*.json"))
        assert sorted(path.stem for path in written) == sorted(PAPER)
        for path in written:
            [record] = load_records(path)
            assert record.rows, path.name
            # A smoke run says so: written over a committed record, it
            # fails the contract test above instead of passing for it.
            assert record.parameters == {
                **PAPER[record.experiment_id].parameters,
                "quick": True,
            }

    def test_report_renders_reproduce_output(self, quick_run, capsys):
        assert main(["report", "--results-dir", str(quick_run)]) == 0
        text = capsys.readouterr().out
        assert "[fig01]" in text and "[tab03]" in text


class TestServeRestart:
    """``repro serve --journal P`` over a ``P`` an earlier run wrote
    resumes that history instead of forking it."""

    @pytest.fixture
    def first_run(self, tmp_path):
        """A 200-vertex edge list, and a journal a first ``serve`` on it
        wrote with one update in it."""
        from repro.cli import serve_service

        graph_path, journal = tmp_path / "g.txt", tmp_path / "p.wal"
        assert main(["generate", "pa", str(graph_path), "--n", "200"]) == 0
        args = build_parser().parse_args(
            ["serve", str(graph_path), "--journal", str(journal)]
        )
        with serve_service(args) as service:
            service.add_edge(900, 901)
            version = service.graph.version
        return graph_path, journal, args, version

    def test_a_restarted_serve_answers_with_the_first_runs_updates(
        self, first_run
    ):
        from repro.cli import serve_service
        from repro.graph.journal import replay

        graph_path, journal, args, version = first_run
        with serve_service(args) as service:
            assert service.query(900, 901).answer
            assert service.graph.version == version
            service.add_edge(901, 902)
            resumed = service.graph.version
        result = replay(journal, read_edge_list(graph_path))
        assert result.version == resumed > version
        assert result.graph.has_edge(900, 901)
        assert result.graph.has_edge(901, 902)

    def test_an_edge_list_that_is_not_the_base_exits_non_zero(
        self, first_run, tmp_path, capsys
    ):
        graph_path, journal, _, _ = first_run
        other = tmp_path / "other.txt"
        graph = read_edge_list(graph_path)
        graph.add_edge(700, 701)
        write_edge_list(graph, other)
        argv = ["serve", str(other), "--journal", str(journal)]
        assert main(argv + ["--port", "0", "--max-seconds", "0"]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_a_checkpointed_journal_resumes_on_its_checkpoint_only(
        self, first_run, tmp_path, capsys
    ):
        from repro.cli import serve_service

        graph_path, journal, args, _ = first_run
        snap = tmp_path / "p.ckpt"
        with serve_service(args) as service:
            service.journal.checkpoint(service.graph, snap)
            service.remove_edge(900, 901)
            version = service.graph.version
        argv = ["serve", str(graph_path), "--journal", str(journal)]
        assert main(argv + ["--port", "0", "--max-seconds", "0"]) == 2
        assert "p.ckpt" in capsys.readouterr().err
        on_checkpoint = build_parser().parse_args(
            ["serve", str(snap), "--journal", str(journal)]
        )
        with serve_service(on_checkpoint) as service:
            assert service.graph.version == version
            assert not service.graph.has_edge(900, 901)

    def test_a_missing_checkpoint_exits_non_zero_naming_it(
        self, first_run, tmp_path, capsys
    ):
        from repro.cli import serve_service

        graph_path, journal, args, _ = first_run
        snap = tmp_path / "p.ckpt"
        with serve_service(args) as service:
            service.journal.checkpoint(service.graph, snap)
        snap.unlink()
        argv = ["serve", str(graph_path), "--journal", str(journal)]
        assert main(argv + ["--port", "0", "--max-seconds", "0"]) == 2
        assert "p.ckpt" in capsys.readouterr().err


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


def _parameters(function) -> inspect.Signature:
    """``function``'s signature as a call site sees it (no ``self``)."""
    signature = inspect.signature(function)
    params = list(signature.parameters.values())
    if params and params[0].name == "self":
        signature = signature.replace(parameters=params[1:])
    return signature


def serving_census():
    """Every component the serving stack is built from, as call-site
    patterns: ``"Name"`` is a constructor (also called as
    ``module.Name``), ``"Name.open"`` a classmethod that forwards its
    arguments to ``Name``, ``"*.serve"`` a method on any receiver. Each
    maps to the component it sets and the signature a call binds."""
    from repro.graph.journal import UpdateJournal
    from repro.graph.labels import LabelIndex
    from repro.net.client import FailoverClient
    from repro.net.replica import ReplicaNode
    from repro.net.server import ReachabilityServer
    from repro.net.supervisor import ClusterSupervisor
    from repro.service.cache import VersionedQueryCache
    from repro.service.fastpath import FastPathPruner
    from repro.service.faults import Backoff, CircuitBreaker

    census = {
        cls.__name__: (cls.__name__, _parameters(cls.__init__))
        for cls in (
            ReachabilityServer, ReplicaNode, ClusterSupervisor, FailoverClient,
            Backoff, CircuitBreaker, FastPathPruner, VersionedQueryCache,
            LabelIndex, UpdateJournal,
        )
    }
    census["FailoverClient.open"] = (
        "FailoverClient", _parameters(FailoverClient.open)
    )
    census["*.serve"] = ("ReplicaNode.serve", _parameters(ReplicaNode.serve))
    return census


def ifca_census():
    """``IFCAParams`` as call-site patterns: its constructor, and
    ``with_overrides`` on any receiver (its ``**kwargs`` bind by name)."""
    from repro.core.params import IFCAParams

    return {
        "IFCAParams": ("IFCAParams", _parameters(IFCAParams.__init__)),
        "*.with_overrides": (
            "IFCAParams", _parameters(IFCAParams.with_overrides)
        ),
    }


def _pattern(func: ast.expr, census) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id if func.id in census else None
    if not isinstance(func, ast.Attribute):
        return None
    owner = func.value
    owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
    for pattern in (func.attr, f"{owner}.{func.attr}", f"*.{func.attr}"):
        if pattern in census:
            return pattern
    return None


def bound_parameters(sources, census) -> Dict[str, Set[str]]:
    """The parameters of each component that some call in ``sources``
    binds: positional and keyword arguments are bound against the
    signature (a call that does not bind raises ``TypeError``), and a
    forwarder's ``**kwargs`` bind by name. A ``*sequence`` or
    ``**mapping`` argument binds nothing the census can name."""
    bound: Dict[str, Set[str]] = {target: set() for target, _ in census.values()}
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            pattern = _pattern(call.func, census)
            if pattern is None:
                continue
            target, signature = census[pattern]
            args = []
            for arg in call.args:
                if isinstance(arg, ast.Starred):
                    break
                args.append(arg)
            kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}
            arguments = signature.bind_partial(*args, **kwargs).arguments
            for name, value in arguments.items():
                if signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
                    bound[target].update(value)
                else:
                    bound[target].add(name)
    return bound


def component_signatures(census) -> Dict[str, inspect.Signature]:
    """Each component's own signature (a forwarder's is not one)."""
    return {
        target: signature
        for pattern, (target, signature) in census.items()
        if pattern == target or target not in census
    }


def unset_parameters(sources, census, exempt) -> Dict[str, List[str]]:
    """Each component's parameters that no call binds and ``exempt``
    does not excuse (components with none are left out)."""
    bound = bound_parameters(sources, census)
    unset = {}
    for target, signature in component_signatures(census).items():
        names = {
            name for name, param in signature.parameters.items()
            if param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        }
        missing = sorted(names - bound[target] - set(exempt.get(target, ())))
        if missing:
            unset[target] = missing
    return unset


def production_sources() -> List[str]:
    return [
        path.read_text(encoding="utf-8")
        for top in ("src", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
    ]


class TestKnobCensus:
    """The numbers ROADMAP's north star tracks, as a ratchet."""

    RATCHET = "lower the pin when you delete one, justify in the PR when you raise it"

    def test_service_constructor_parameters(self):
        from repro.service import ReachabilityService

        params = inspect.signature(ReachabilityService.__init__).parameters
        assert len(params) - 1 <= 15, self.RATCHET  # minus self

    def test_ifca_params_fields(self):
        import dataclasses

        from repro.core.params import IFCAParams, ResolvedParams

        assert len(dataclasses.fields(IFCAParams)) <= 10, self.RATCHET
        assert len(dataclasses.fields(ResolvedParams)) <= 10, self.RATCHET

    def test_engine_module_lines(self):
        import repro.service.engine as engine

        with open(engine.__file__, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) <= 1366, self.RATCHET

    def test_src_lines(self):
        lines = sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in (ROOT / "src").rglob("*.py")
        )
        assert lines <= 19_571, self.RATCHET

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

    #: Serving parameters no production call sets, each with its reason.
    EXEMPT = {
        "FailoverClient": {
            "supervisor_host": "a deployment address: callers pass *address",
            "supervisor_port": "a deployment address: callers pass *address",
        },
        "CircuitBreaker": {"clock": "a test seam: tests substitute a fake clock"},
        "LabelIndex": {
            "landmarks": "a test seam: a fresh build re-ranks hubs by current "
            "degree, so bit-for-bit rebuild tests pin the landmark set",
        },
        "ReachabilityServer": {
            "coalesce_delay_s": "a test seam: tests put several connections "
            "into one drain (an injected clock would replace it)",
        },
    }

    def test_every_serving_parameter_has_a_production_caller(self):
        """Every parameter of every component the service is built from
        is bound by some call under ``src/`` or ``benchmarks/``, or is
        exempt with a reason; an exemption is never stale."""
        census = serving_census()
        sources = production_sources()
        unset = unset_parameters(sources, census, self.EXEMPT)
        assert unset == {}, "delete them or give them a caller"
        bound = bound_parameters(sources, census)
        signatures = component_signatures(census)
        for target, reasons in self.EXEMPT.items():
            for name, reason in reasons.items():
                assert name in signatures[target].parameters, (target, name)
                assert name not in bound[target] and reason, (target, name)

    def test_every_ifca_param_has_a_production_caller(self):
        """The paper's parameters are no exception: every ``IFCAParams``
        field is bound by some ``IFCAParams(...)`` or
        ``.with_overrides(...)`` call under ``src/`` or ``benchmarks/``."""
        unset = unset_parameters(production_sources(), ifca_census(), {})
        assert unset == {}, "delete them or give them a caller"

    def test_serving_parameters(self):
        signatures = component_signatures(serving_census())
        total = sum(len(signature.parameters) for signature in signatures.values())
        assert total <= 38, self.RATCHET

    def test_deleted_settings_stay_deleted(self):
        import dataclasses

        from repro.core import budget
        from repro.core.params import IFCAParams, ResolvedParams
        from repro.graph import kernels
        from repro.graph.labels import LabelIndex
        from repro.ppr import forward_push
        from repro.service import engine

        gone = {
            "tail_poll_s", "server_kwargs", "lease_ttl_s", "max_attempts",
            "shed_retries", "multiplier", "failure_threshold",
            "probe_interval_s", "rebuild_cooldown", "label_bits",
            "staleness_threshold", "fsync_every", "checkpoint",
        }
        for target, signature in component_signatures(serving_census()).items():
            assert not gone & set(signature.parameters), target
        assert not hasattr(engine, "LABEL_BITS")
        assert not hasattr(engine.ReachabilityService, "add_vertex")
        assert not hasattr(LabelIndex, "note_vertex")

        params_gone = {
            "use_contraction", "beta", "max_rounds", "budget_check_interval",
            "use_push_kernels",
        }
        for cls in (IFCAParams, ResolvedParams):
            fields = {field.name for field in dataclasses.fields(cls)}
            assert not params_gone & fields, cls
        # One substrate per query: no hybrid hand-off, no per-call PPR pin.
        assert not hasattr(kernels, "csr_bibfs_frontiers")
        assert "use_kernels" not in inspect.signature(forward_push).parameters
        # Modules with no production caller, and the bench-only kernel.
        for module in (
            "repro.constrained", "repro.baselines.pll", "repro.core.planner",
            "repro.experiments.accuracy_study", "repro.experiments.throughput",
            "repro.ppr.backward_push", "repro.ppr.fora", "repro.ppr.monte_carlo",
            "repro.ppr.power_iteration", "repro.community.conductance",
        ):
            assert importlib.util.find_spec(module) is None, module
        assert not hasattr(kernels, "csr_backward_push_drain")
        assert not hasattr(budget, "CancelToken")
        for function in (budget.Budget.__init__, budget.Budget.from_timeout):
            assert "token" not in inspect.signature(function).parameters
        service = engine.ReachabilityService
        assert "cancel_inflight" not in inspect.signature(service.close).parameters
        assert not hasattr(service, "cancel_token")

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


class TestCensusBinder:
    """The census binds arguments the way Python does."""

    def bound(self, source, census=None):
        return bound_parameters([source], census or serving_census())

    def test_positional_and_keyword_arguments_bind(self):
        bound = self.bound(
            "VersionedQueryCache(cache_capacity)\n"
            "journal.UpdateJournal(path, graph_version=version)\n"
        )
        assert bound["VersionedQueryCache"] == {"capacity"}
        assert bound["UpdateJournal"] == {"path", "graph_version"}

    def test_starred_arguments_bind_nothing_they_cannot_name(self):
        bound = self.bound(
            "ReachabilityServer(service, port=0, **server_kwargs)\n"
            "Backoff(*delays, seed=1)\n"
        )
        assert bound["ReachabilityServer"] == {"service", "port"}
        assert bound["Backoff"] == {"seed"}

    def test_a_forwarding_classmethod_sets_its_class(self):
        bound = self.bound(
            "FailoverClient.open(host, port, retry_cap_s=0.5)\n"
            "FailoverClient.open(*address, base_delay_s=0.05)\n"
            "ReachabilityClient.open(host, port)\n"
        )
        assert bound["FailoverClient"] == {
            "supervisor_host", "supervisor_port", "retry_cap_s", "base_delay_s",
        }

    def test_a_method_binds_on_any_receiver(self):
        bound = self.bound("await node.serve(args.host)\n")
        assert bound["ReplicaNode.serve"] == {"host"}

    def test_a_call_that_does_not_bind_fails(self):
        with pytest.raises(TypeError):
            self.bound("CircuitBreaker(clock, 3)\n")
        with pytest.raises(TypeError):
            self.bound("UpdateJournal(path, fsync_every=8)\n")

    def test_an_unset_parameter_is_flagged(self):
        def widget(size, colour="red", *, weight=1.0, **extra):
            pass

        census = {"Widget": ("Widget", _parameters(widget))}
        sources = ["Widget(3, weight=2.0)\n", "Widget(size=4)\n"]
        assert unset_parameters(sources, census, {}) == {"Widget": ["colour"]}
        assert unset_parameters(sources, census, {"Widget": {"colour": "why"}}) == {}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _references(tree: ast.AST, module: str, package: bool) -> Tuple[Set[str], Set[str]]:
    """The names and modules some code refers to: loaded ``ast.Name``
    ids and ``ast.Attribute`` attributes, import aliases, and the modules
    imports load. Annotations are types, not calls, and are skipped."""
    names: Set[str] = set()
    modules: Set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.arg):
            continue
        if isinstance(node, ast.AnnAssign):
            stack.extend(n for n in (node.target, node.value) if n is not None)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list + node.body + node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.name)
                names.add(alias.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.ImportFrom):
            parts = module.split(".")
            base = parts[: len(parts) + package - node.level] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            modules.add(source)
            for alias in node.names:
                names.add(alias.name)
                modules.add(f"{source}.{alias.name}")
        stack.extend(ast.iter_child_nodes(node))
    return names, modules


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definition_census(src: Path, roots, seeds=()) -> Tuple[Set[str], Set[str]]:
    """``(defined, reached)`` over every top-level function and class and
    every method under ``src``, each named ``module:qualname``.

    The root files are reached whole. A reached module's top-level
    statements are reached, and so is every definition whose name reached
    code refers to (a method once its class is reached too; a class's
    dunder methods with the class). A package ``__init__``'s imports and
    any ``__all__`` are re-exports, not callers. ``seeds`` (exemptions)
    are walked as entry points but count as reached only if something
    else refers to them. Matching is by name, so a name collision keeps a
    definition alive; it never flags a reached one."""
    modules: Dict[str, Tuple[ast.Module, bool]] = {}
    definitions: Dict[str, Tuple[str, ast.AST, Optional[str]]] = {}
    by_name: Dict[str, List[str]] = {}
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules[module] = (tree, path.name == "__init__.py")
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS):
                continue
            key = f"{module}:{node.name}"
            definitions[key] = (module, node, None)
            by_name.setdefault(node.name, []).append(key)
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, _DEFINITIONS):
                    definitions[f"{key}.{sub.name}"] = (module, sub, key)
                    by_name.setdefault(sub.name, []).append(f"{key}.{sub.name}")

    seen: Set[str] = set()
    reached: Set[str] = set()
    entered: Set[str] = set()
    names: List[str] = []
    imports: List[str] = []

    def visit(node: ast.AST, module: str) -> None:
        package = modules.get(module, (None, False))[1]
        found, loaded = _references(node, module, package)
        names.extend(found)
        imports.extend(loaded)

    def reach(key: str) -> None:
        if key in reached:
            return
        reached.add(key)
        module, node, owner = definitions[key]
        imports.append(module)
        if not isinstance(node, ast.ClassDef) or owner is not None:
            visit(node, module)
            return
        body = [s for s in node.body if not isinstance(s, _DEFINITIONS)]
        keywords = [k.value for k in node.keywords]
        for part in node.decorator_list + node.bases + keywords + body:
            visit(part, module)
        for sub in node.body:
            if isinstance(sub, _DEFINITIONS) and (sub.name in seen or _is_dunder(sub.name)):
                reach(f"{key}.{sub.name}")

    for root in roots:
        module = _module_name(root, src) if src in root.parents else ""
        visit(ast.parse(root.read_text(encoding="utf-8")), module)
        entered.add(module)
        reached.update(k for k, (m, _, _) in definitions.items() if m == module)
    for key in seeds:
        if key in definitions:
            module, node, _ = definitions[key]
            imports.append(module)
            visit(node, module)

    while names or imports:
        while imports:
            module = imports.pop()
            if module in entered or module not in modules:
                continue
            entered.add(module)
            tree, package = modules[module]
            for stmt in tree.body:
                if isinstance(stmt, _DEFINITIONS) or (
                    package and isinstance(stmt, (ast.Import, ast.ImportFrom))
                ):
                    continue
                if isinstance(stmt, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in stmt.targets
                ):
                    continue
                visit(stmt, module)
        while names:
            name = names.pop()
            if name in seen:
                continue
            seen.add(name)
            for key in by_name.get(name, ()):
                owner = definitions[key][2]
                if owner is None or owner in reached:
                    reach(key)
    return set(definitions), reached


def stale_exemptions(defined: Set[str], reached: Set[str], exempt) -> List[str]:
    """Exemptions that no longer name a definition, or whose definition
    something now reaches."""
    return sorted(key for key in exempt if key not in defined or key in reached)


def definition_roots(root: Path = ROOT) -> List[Path]:
    """Where production reaches ``src/`` from: the CLI, the end-to-end
    benchmark, and the paper benches."""
    bench = root / "benchmarks"
    return [
        root / "src/repro/cli.py",
        root / "src/repro/__main__.py",
        bench / "conftest.py",
        *sorted((bench / "e2e").glob("*.py")),
        *sorted(bench.glob("bench_fig*.py")),
        *sorted(bench.glob("bench_tab*.py")),
    ]


@pytest.fixture(scope="module")
def repo_census():
    return definition_census(
        ROOT / "src", definition_roots(), TestDefinitionCensus.EXEMPT
    )


class TestDefinitionCensus:
    """Every definition under ``src/`` has a production caller: the CLI,
    the end-to-end benchmark or the paper benches reach it. A pure test
    oracle lives under ``tests/`` instead; anything else no root reaches
    is deleted, or exempt here with its reason."""

    _PROTOCOL = "an asyncio.Protocol callback: the event loop calls it"
    _CHECK = (
        "an O(n + m) self-check of a maintained structure: tests run it "
        "after every update"
    )

    EXEMPT = {
        "repro.graph.dag:DynamicDAG.check_invariants": _CHECK,
        "repro.graph.dag:DynamicDAG.check_consistency": _CHECK,
        "repro.graph.labels:LabelIndex.check_invariants": _CHECK,
        "repro.net.server:_Connection.connection_made": _PROTOCOL,
        "repro.net.server:_Connection.connection_lost": _PROTOCOL,
        "repro.net.server:_Connection.data_received": _PROTOCOL,
        "repro.net.server:_Connection.eof_received": _PROTOCOL,
        "repro.net.server:_Connection.pause_writing": _PROTOCOL,
        "repro.net.server:_Connection.resume_writing": _PROTOCOL,
        "repro.service.cache:VersionedQueryCache.peek": "a read that leaves "
        "LRU order alone: the eviction tests observe the cache through it",
        "repro.shard.router:ShardRouter.warm_fleet": "bench_shard.py warms "
        "the fleet with it; the shard package goes as a whole, not method "
        "by method",
    }

    def test_every_definition_has_a_production_caller(self, repo_census):
        defined, reached = repo_census
        unreached = sorted(defined - reached - set(self.EXEMPT))
        assert unreached == [], (
            "delete them, move a test oracle under tests/, or exempt them "
            "with a reason"
        )

    def test_no_exemption_is_stale(self, repo_census):
        assert stale_exemptions(*repo_census, self.EXEMPT) == []
        assert all(self.EXEMPT.values())


class TestDefinitionCensusBinder:
    """The definition census follows references the way the rule says."""

    TREE = {
        "src/pkg/__init__.py": (
            "from pkg.tools import exported\n__all__ = ['exported', 'listed']\n"
        ),
        "src/pkg/tools.py": (
            "def used():\n    return helper()\n\n"
            "def helper():\n    pass\n\n"
            "def exported():\n    pass\n\n"
            "def listed():\n    pass\n\n"
            "def bench_only():\n    return helper_of_bench()\n\n"
            "def helper_of_bench():\n    pass\n\n"
            "class Thing:\n"
            "    def __init__(self):\n        pass\n\n"
            "    def method(self):\n        pass\n\n"
            "    def unused_method(self):\n        pass\n"
        ),
        "src/pkg/cli.py": (
            "from pkg.tools import Thing, used\n\n"
            "def main():\n    used()\n    Thing().method()\n"
        ),
        "benchmarks/bench_other.py": (
            "from pkg.tools import bench_only\n\nbench_only()\n"
        ),
    }

    @pytest.fixture
    def tree(self, tmp_path):
        for name, text in self.TREE.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return tmp_path

    def census(self, tree, roots=("src/pkg/cli.py",), seeds=()):
        return definition_census(
            tree / "src", [tree / root for root in roots], seeds
        )

    def test_a_definition_only_a_non_root_bench_reaches_is_flagged(self, tree):
        defined, reached = self.census(tree)
        assert sorted(defined - reached) == [
            "pkg.tools:Thing.unused_method", "pkg.tools:bench_only",
            "pkg.tools:exported", "pkg.tools:helper_of_bench",
            "pkg.tools:listed",
        ]
        _, reached = self.census(tree, roots=("src/pkg/cli.py", "benchmarks/bench_other.py"))
        assert {"pkg.tools:bench_only", "pkg.tools:helper_of_bench"} <= reached

    def test_a_reexport_or_all_entry_is_not_a_caller(self, tree):
        _, reached = self.census(tree)
        assert "pkg.tools:exported" not in reached
        assert "pkg.tools:listed" not in reached

    def test_an_exemption_is_an_entry_point(self, tree):
        defined, reached = self.census(tree, seeds=["pkg.tools:bench_only"])
        assert "pkg.tools:helper_of_bench" in reached
        assert "pkg.tools:bench_only" not in reached

    def test_a_reached_or_missing_exemption_is_stale(self, tree):
        defined, reached = self.census(tree)
        exempt = {
            "pkg.tools:bench_only": "why",
            "pkg.tools:used": "reached",
            "pkg.tools:gone": "deleted",
        }
        assert stale_exemptions(defined, reached, exempt) == [
            "pkg.tools:gone", "pkg.tools:used",
        ]


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
