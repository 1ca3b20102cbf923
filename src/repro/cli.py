"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro query GRAPH.txt SOURCE TARGET [--method ifca]
    python -m repro query-batch GRAPH.txt PAIRS.txt [--deadline-ms 5]
    python -m repro stats GRAPH.txt
    python -m repro generate sbm --block-size 100 --degree 5 OUT.txt
    python -m repro compare EN [--max-updates 250]
    python -m repro serve GRAPH.txt [--port 7420 --journal WAL.jsonl]
    python -m repro replica HOST:PORT REPLICA.wal [--port 7421]
    python -m repro chaos GRAPH.txt --plan kernel-crash
    python -m repro chaos-net [--scenario kill-primary] [--artifacts DIR]
    python -m repro reproduce [--quick] [--out results]
    python -m repro report [--markdown]
    python -m repro calibrate-lambda

Graphs are plain edge lists (``u v`` per line, ``#``/``%`` comments).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.baselines.arrow import ArrowMethod
from repro.baselines.base import ReachabilityMethod
from repro.baselines.bibfs import BiBFSMethod
from repro.baselines.dagger import DaggerMethod
from repro.baselines.dbl import DBLMethod
from repro.baselines.ip import IPMethod
from repro.baselines.tol import TOLMethod
from repro.core.ifca import IFCAMethod
from repro.datasets.registry import DATASET_ORDER
from repro.datasets.sbm import two_block_sbm
from repro.datasets.scale_free import (
    erdos_renyi_graph,
    preferential_attachment_graph,
    rmat_graph,
    star_heavy_graph,
)
from repro.experiments.tables import format_table
from repro.graph.digraph import DynamicDiGraph
from repro.graph.io import read_edge_list, write_edge_list

if TYPE_CHECKING:
    from repro.service import ReachabilityService

METHOD_FACTORIES: Dict[str, Callable[[DynamicDiGraph], ReachabilityMethod]] = {
    "ifca": lambda g: IFCAMethod(g),
    "bibfs": lambda g: BiBFSMethod(g),
    "arrow": lambda g: ArrowMethod(g, c_num_walks=1.0),
    "tol": lambda g: TOLMethod(g),
    "ip": lambda g: IPMethod(g),
    "dagger": lambda g: DaggerMethod(g),
    "dbl": lambda g: DBLMethod(g),
}


def _deadline_ms(text: str) -> float:
    """A ``--deadline-ms`` value: finite and non-negative (0 is none)."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number of milliseconds, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IFCA reachability toolkit (ICDE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="answer one reachability query")
    q.add_argument("graph", help="edge-list file")
    q.add_argument("source", type=int)
    q.add_argument("target", type=int)
    q.add_argument(
        "--method", choices=sorted(METHOD_FACTORIES), default="ifca"
    )
    q.set_defaults(func=cmd_query)

    qb = sub.add_parser(
        "query-batch",
        help="answer a batch of reachability queries in one coalesced call",
    )
    qb.add_argument("graph", help="edge-list file")
    qb.add_argument(
        "pairs",
        help="file of 's t' query pairs (one per line, '#' comments; "
        "'-' reads stdin)",
    )
    qb.add_argument("--supportive", type=int, default=4)
    qb.add_argument(
        "--deadline-ms",
        type=_deadline_ms,
        default=None,
        help="whole-batch deadline; expired work degrades per query",
    )
    qb.add_argument("--seed", type=int, default=0)
    qb.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    qb.set_defaults(func=cmd_query_batch)

    s = sub.add_parser("stats", help="print basic statistics of a graph")
    s.add_argument("graph", help="edge-list file")
    s.add_argument(
        "--exact-clustering",
        action="store_true",
        help="compute the exact clustering coefficient (O(sum d^2))",
    )
    s.set_defaults(func=cmd_stats)

    g = sub.add_parser("generate", help="generate a synthetic graph")
    g.add_argument(
        "family",
        choices=["sbm", "pa", "star", "er", "rmat"],
        help="generator family",
    )
    g.add_argument("output", help="output edge-list file")
    g.add_argument("--block-size", type=int, default=500)
    g.add_argument("--degree", type=float, default=5.0)
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--out-degree", type=int, default=3)
    g.add_argument("--hubs", type=int, default=8)
    g.add_argument("--scale", type=int, default=10, help="rmat: n = 2**scale")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser(
        "compare", help="replay a dataset analog through every method"
    )
    c.add_argument("dataset", choices=DATASET_ORDER)
    c.add_argument("--max-updates", type=int, default=250)
    c.add_argument("--batches", type=int, default=4)
    c.add_argument("--queries-per-batch", type=int, default=25)
    c.set_defaults(func=cmd_compare)

    l = sub.add_parser(
        "calibrate-lambda",
        help="measure the guided-push : BiBFS per-operation time ratio",
    )
    l.add_argument("--repetitions", type=int, default=5)
    l.add_argument(
        "--push-kernels",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="time the array-state push drain instead of the dict twin",
    )
    l.set_defaults(func=cmd_calibrate)

    r = sub.add_parser(
        "report", help="render saved benchmark records as text tables"
    )
    r.add_argument(
        "--results-dir", default="results", help="directory of *.json records"
    )
    r.add_argument(
        "--markdown", action="store_true", help="emit GitHub-flavoured tables"
    )
    r.set_defaults(func=cmd_report)

    sv = sub.add_parser(
        "serve",
        help="serve a graph over the wire protocol (asyncio server)",
    )
    sv.add_argument("graph", help="edge-list file with the initial snapshot")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=7420, help="bind port (0 = ephemeral)"
    )
    sv.add_argument("--supportive", type=int, default=4)
    sv.add_argument(
        "--journal",
        default=None,
        help="write-ahead journal (JSONL); required for replicas to "
        "subscribe",
    )
    sv.add_argument(
        "--max-pending",
        type=int,
        default=0,
        help="shed wire queries once this many are queued or executing "
        "(0 = unbounded); shed responses carry retry_after_ms",
    )
    sv.add_argument("--max-wave", type=int, default=256)
    sv.add_argument(
        "--shards",
        type=int,
        default=0,
        help="deploy this many shared-memory shard-worker processes "
        "behind the coalesced batch path (0/1 = single-process)",
    )
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit after this long (scripted smoke runs); default runs "
        "until interrupted",
    )
    sv.set_defaults(func=cmd_serve)

    rp = sub.add_parser(
        "replica",
        help="follow a primary's journal stream and serve reads at the "
        "replication watermark",
    )
    rp.add_argument(
        "primary", help="primary address as HOST:PORT (e.g. 127.0.0.1:7420)"
    )
    rp.add_argument(
        "journal", help="the replica's local write-ahead journal (JSONL)"
    )
    rp.add_argument("--host", default="127.0.0.1")
    rp.add_argument(
        "--port",
        type=int,
        default=7421,
        help="serve read-only queries here (0 = ephemeral)",
    )
    rp.add_argument("--supportive", type=int, default=4)
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit after this long (scripted smoke runs)",
    )
    rp.set_defaults(func=cmd_replica)

    ch = sub.add_parser(
        "chaos",
        help="replay a mixed workload under a named fault plan and "
        "report what survived",
    )
    ch.add_argument(
        "graph", nargs="?", help="edge-list file with the initial snapshot"
    )
    ch.add_argument(
        "--plan",
        default="mixed-chaos",
        help="fault plan name (see --list-plans)",
    )
    ch.add_argument(
        "--list-plans", action="store_true", help="list fault plans and exit"
    )
    ch.add_argument("--ops", type=int, default=2000)
    ch.add_argument("--query-ratio", type=float, default=0.8)
    ch.add_argument("--supportive", type=int, default=0)
    ch.add_argument(
        "--deadline-ms",
        type=_deadline_ms,
        default=None,
        help="per-query cooperative deadline",
    )
    ch.add_argument(
        "--edge-budget",
        type=int,
        default=None,
        help="per-query engine edge-access ceiling",
    )
    ch.add_argument(
        "--journal", default=None, help="write-ahead journal path (JSONL)"
    )
    ch.add_argument(
        "--oracle",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="verify final-version confident answers against a BFS oracle",
    )
    ch.add_argument("--seed", type=int, default=0)
    ch.set_defaults(func=cmd_chaos)

    cn = sub.add_parser(
        "chaos-net",
        help="network chaos harness: kill -9 the primary under the "
        "supervisor, SIGKILL/SIGSTOP shard workers, partition a "
        "replica, inject torn frames — all checked against a BFS oracle",
    )
    cn.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        default=None,
        metavar="NAME",
        help="scenario to run (repeatable; default: all). One of: "
        "kill-primary, worker-respawn, stop-worker, partition-replica, "
        "torn-frames",
    )
    cn.add_argument(
        "--artifacts",
        default="results/chaos_net_artifacts",
        help="directory for post-mortem artifacts (journals, supervisor "
        "log, primary stderr)",
    )
    cn.add_argument(
        "--out",
        default=None,
        help="also write the results record JSON here "
        "(e.g. results/ext_chaos_net.json)",
    )
    cn.add_argument("--heartbeat-interval", type=float, default=0.05)
    cn.add_argument("--heartbeat-misses", type=int, default=3)
    cn.add_argument("--ops", type=int, default=160)
    cn.add_argument("--checks", type=int, default=120)
    cn.add_argument("--seed", type=int, default=0)
    cn.set_defaults(func=cmd_chaos_net)

    rep = sub.add_parser(
        "reproduce",
        help="run the paper's full evaluation and save all records",
    )
    rep.add_argument("--out", default="results", help="output directory")
    rep.add_argument(
        "--quick", action="store_true", help="smaller workloads (smoke run)"
    )
    rep.add_argument(
        "--quiet", action="store_true", help="suppress per-experiment tables"
    )
    rep.set_defaults(func=cmd_reproduce)

    return parser


def cmd_query(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    graph.csr()  # freeze once so every kernel path can engage
    method = METHOD_FACTORIES[args.method](graph)
    reachable = method.query(args.source, args.target)
    print(
        f"{args.source} -> {args.target}: "
        f"{'reachable' if reachable else 'not reachable'} "
        f"(method={method.name}, exact={method.exact})"
    )
    return 0 if reachable else 1


def cmd_query_batch(args: argparse.Namespace) -> int:
    from repro.service import ReachabilityService

    graph = read_edge_list(args.graph)
    pairs: List[tuple] = []
    handle = sys.stdin if args.pairs == "-" else open(args.pairs, "r")
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) != 2:
                print(
                    f"error: {args.pairs}:{lineno}: expected 's t', got {line!r}",
                    file=sys.stderr,
                )
                return 2
            pairs.append((int(parts[0]), int(parts[1])))
    finally:
        if handle is not sys.stdin:
            handle.close()
    if not pairs:
        print("error: no query pairs given", file=sys.stderr)
        return 2

    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms else None
    with ReachabilityService(
        graph,
        num_supportive=args.supportive,
        seed=args.seed,
        deadline_s=deadline_s,
    ) as service:
        outcomes = service.query_batch(pairs)
        if not args.quiet:
            for outcome in outcomes:
                verdict = "reachable" if outcome.answer else "not reachable"
                print(
                    f"{outcome.source} -> {outcome.target}: {verdict} "
                    f"(via={outcome.via}"
                    + (f", {outcome.detail}" if outcome.detail else "")
                    + ")"
                )
        counters = service.stats()["counters"]
        derived = service.stats()["derived"]
        positives = sum(1 for o in outcomes if o.answer)
        print(
            f"{len(outcomes)} queries ({positives} reachable): "
            f"{counters.get('bit_waves', 0)} bit waves, "
            f"{counters.get('batch_prefilter_hits', 0)} prefilter hits, "
            f"{counters.get('batched_dedup', 0)} deduped, "
            f"word occupancy {derived.get('word_occupancy', 0.0):.1%}"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.graph.stats import summarize

    graph = read_edge_list(args.graph)
    summary = summarize(graph, exact_clustering=args.exact_clustering)
    category = (
        "discernible communities"
        if summary.has_discernible_communities
        else "no discernible communities"
    )
    print(f"vertices:              {summary.num_vertices}")
    print(f"edges:                 {summary.num_edges}")
    print(f"average degree:        {summary.average_degree:.3f}")
    print(f"max out/in degree:     {summary.max_out_degree} / {summary.max_in_degree}")
    print(f"SCCs (largest):        {summary.num_sccs} ({summary.largest_scc})")
    print(f"clustering coeff.:     {summary.clustering_coefficient:.5f} ({category})")
    print(f"degree tail exponent:  {summary.degree_tail_exponent:.2f}")
    print(f"reachable pairs:       {summary.reachable_pair_fraction:.1%}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "sbm":
        graph = two_block_sbm(args.block_size, args.degree, seed=args.seed)
    elif args.family == "pa":
        graph = preferential_attachment_graph(
            args.n, args.out_degree, seed=args.seed
        )
    elif args.family == "star":
        graph = star_heavy_graph(args.n, num_hubs=args.hubs, seed=args.seed)
    elif args.family == "rmat":
        graph = rmat_graph(args.scale, args.out_degree, seed=args.seed)
    else:
        graph = erdos_renyi_graph(args.n, args.degree, seed=args.seed)
    write_edge_list(graph, args.output)
    print(
        f"wrote {args.family} graph (n={graph.num_vertices}, "
        f"m={graph.num_edges}) to {args.output}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.comparison import run_comparison_on_analog

    rows = run_comparison_on_analog(
        args.dataset,
        num_batches=args.batches,
        queries_per_batch=args.queries_per_batch,
        max_updates=args.max_updates,
    )
    print(
        format_table(
            rows,
            columns=[
                "method",
                "avg_update_ms",
                "avg_query_ms",
                "avg_pos_query_ms",
                "avg_neg_query_ms",
                "accuracy",
            ],
            title=f"{args.dataset} analog",
        )
    )
    return 0


def serve_service(args: argparse.Namespace) -> "ReachabilityService":
    """The service ``repro serve`` runs on ``args.graph``.

    A ``--journal`` that already holds a header is replayed onto the edge
    list first (the edge list is its base), so a restarted server answers
    with the updates of the runs before it and stamps new records after
    theirs. Raises :class:`~repro.graph.journal.JournalError` when the
    journal does not replay onto that edge list.
    """
    from repro.service import ReachabilityService

    graph = read_edge_list(args.graph)
    kwargs = dict(
        num_supportive=args.supportive,
        seed=args.seed,
        max_pending=args.max_pending,
        shards=args.shards,
    )
    journal = Path(args.journal) if args.journal else None
    if journal is not None and journal.exists() and journal.stat().st_size:
        return ReachabilityService.recover(journal, base_graph=graph, **kwargs)
    return ReachabilityService(graph, journal=journal, **kwargs)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.graph.journal import JournalError
    from repro.net.server import ReachabilityServer

    try:
        service = serve_service(args)
    except JournalError as exc:
        print(f"error: cannot resume {args.journal}: {exc}", file=sys.stderr)
        return 2
    graph = service.graph

    async def run() -> int:
        with service:
            server = ReachabilityServer(
                service, args.host, args.port, max_wave=args.max_wave
            )
            await server.start()
            print(
                f"serving n={graph.num_vertices} m={graph.num_edges} on "
                f"{server.host}:{server.port} "
                f"(coalesce=on, journal={args.journal or 'none'}, "
                f"shards={args.shards or 'off'})",
                flush=True,
            )
            try:
                if args.max_seconds is not None:
                    await asyncio.sleep(args.max_seconds)
                else:
                    await asyncio.Event().wait()
            finally:
                await server.stop()
            counters = server.counters
            print(
                f"served {counters.get('net_queries', 0)} queries over "
                f"{counters.get('net_connections', 0)} connections "
                f"({counters.get('net_coalesced_waves', 0)} coalesced waves, "
                f"{counters.get('net_shed', 0)} shed, "
                f"{counters.get('net_journal_shipped', 0)} journal records "
                f"shipped)"
            )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_replica(args: argparse.Namespace) -> int:
    import asyncio

    from repro.net.replica import ReplicaNode

    host, _, port = args.primary.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: primary must be HOST:PORT, got {args.primary!r}",
            file=sys.stderr,
        )
        return 2

    async def run() -> int:
        node = ReplicaNode(
            host,
            int(port),
            args.journal,
            service_kwargs={
                "num_supportive": args.supportive,
                "seed": args.seed,
            },
        )
        server = await node.serve(args.host, args.port)
        print(
            f"replica of {host}:{port} serving reads on "
            f"{server.host}:{server.port} (watermark {node.watermark})",
            flush=True,
        )
        runner = asyncio.create_task(node.run())
        try:
            if args.max_seconds is not None:
                await asyncio.sleep(args.max_seconds)
            else:
                await asyncio.Event().wait()
        finally:
            node.stop()
            await runner
            await node.close()
        print(
            f"applied {node.records_applied} records "
            f"({node.snapshots_loaded} snapshot bootstraps, "
            f"{node.reconnects} connects); final watermark {node.watermark}"
        )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.service import (
        NAMED_PLANS,
        ReachabilityService,
        plan_by_name,
        replay_workload,
    )
    from repro.workloads.mixed import generate_mixed_workload, workload_mix

    if args.list_plans:
        for name in sorted(NAMED_PLANS):
            plan = NAMED_PLANS[name]
            specs = ", ".join(
                f"{s.stage}:{s.kind}@{s.probability:g}" for s in plan.specs
            ) or "(no faults)"
            print(f"{name:<14} {specs}")
        return 0
    if not args.graph:
        print("error: a graph file is required unless --list-plans", file=sys.stderr)
        return 2

    graph = read_edge_list(args.graph)
    plan = plan_by_name(args.plan, seed=args.seed)
    ops = generate_mixed_workload(
        graph, args.ops, query_ratio=args.query_ratio, seed=args.seed
    )
    queries, inserts, deletes = workload_mix(ops)
    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms else None
    print(
        f"chaos plan {plan.name!r} over {len(ops)} ops "
        f"({queries} queries, {inserts} inserts, {deletes} deletes) "
        f"on n={graph.num_vertices} m={graph.num_edges}"
    )
    with ReachabilityService(
        graph,
        num_supportive=args.supportive,
        seed=args.seed,
        deadline_s=deadline_s,
        engine_edge_budget=args.edge_budget,
        journal=args.journal,
        fault_plan=plan,
    ) as service:
        result = replay_workload(service, ops, deadline_s=deadline_s)
        snapshot = service.stats()
        counters = snapshot["counters"]
        fired = snapshot.get("faults_fired", {})
        final_version = service.graph.version
        mismatches = checked = 0
        if args.oracle:
            from repro.graph.traversal import is_reachable_bfs

            for outcome in result.outcomes:
                if outcome.confident and outcome.version == final_version:
                    checked += 1
                    expected = is_reachable_bfs(
                        service.graph, outcome.source, outcome.target
                    )
                    if expected != outcome.answer:
                        mismatches += 1

    answered = len(result.outcomes)
    confident = sum(1 for o in result.outcomes if o.confident)
    print("\nsurvival report")
    print(f"  queries answered        {answered:>8} / {result.num_queries}")
    print(f"  confident               {confident:>8} ({confident / answered:.1%})"
          if answered else "  confident                      0")
    print(f"  degraded                {counters.get('degraded', 0):>8}")
    print(f"  engine fallbacks        {counters.get('engine_fallbacks', 0):>8}")
    print(f"  engine failures         {counters.get('engine_failures', 0):>8}")
    print(f"  breaker trips           {counters.get('breaker_trips', 0):>8}")
    print(f"  failed updates          {result.failed_updates:>8} / {result.num_updates}")
    print(f"  journal errors          {counters.get('journal_errors', 0):>8}")
    stage_errors = {
        k[len("stage_errors_"):]: v
        for k, v in counters.items()
        if k.startswith("stage_errors_")
    }
    if stage_errors:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(stage_errors.items()))
        print(f"  stage errors            {detail}")
    if fired:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(fired.items()))
        print(f"  faults fired            {detail}")
    if args.oracle:
        print(f"  oracle checked          {checked:>8} (final-version confident answers)")
        print(f"  oracle mismatches       {mismatches:>8}")
    survived = answered == result.num_queries and mismatches == 0
    print(f"\n{'SURVIVED' if survived else 'FAILED'}: every query answered"
          f"{' and every checked confident answer exact' if args.oracle else ''}"
          if survived else "\nFAILED: see report above")
    return 0 if survived else 1


def cmd_chaos_net(args: argparse.Namespace) -> int:
    from repro.net.chaos import run_chaos_net

    rows, ok = run_chaos_net(
        args.scenarios,
        workdir=Path(args.artifacts),
        out=Path(args.out) if args.out else None,
        heartbeat_interval_s=args.heartbeat_interval,
        heartbeat_misses=args.heartbeat_misses,
        ops=args.ops,
        checks=args.checks,
        seed=args.seed,
    )
    ran = sum(1 for r in rows if "skipped" not in r)
    skipped = len(rows) - ran
    print(
        f"\n{'SURVIVED' if ok else 'FAILED'}: {ran} scenario(s) ran"
        + (f", {skipped} skipped" if skipped else "")
        + (", zero oracle mismatches" if ok else " — see rows above")
    )
    return 0 if ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_report

    print(render_report(args.results_dir, markdown=args.markdown))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.reproduce import run_all

    records = run_all(
        out_dir=args.out,
        quick=args.quick,
        echo=None if args.quiet else print,
    )
    print(f"wrote {len(records)} experiment records to {args.out}/")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.experiments.lambda_calibration import calibrate_lambda

    ratio = calibrate_lambda(
        repetitions=args.repetitions, push_kernels=args.push_kernels
    )
    path = "array push kernel" if args.push_kernels else "dict guided push"
    print(f"lambda ({path} op time / BiBFS op time): {ratio:.2f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
