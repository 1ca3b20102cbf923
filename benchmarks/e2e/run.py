#!/usr/bin/env python3
"""The repo's end-to-end serving benchmark (see README.md beside this file).

    python benchmarks/e2e/run.py                       # all four workloads
    python benchmarks/e2e/run.py --trace               # + per-layer budget
    python benchmarks/e2e/run.py --repeat 10 --check-noise
    python benchmarks/e2e/run.py --smoke               # <40 s self-check

One run of one workload (what ``BENCHMARK.json``'s command performs):

    python benchmarks/e2e/run.py --workload point_hot --seed 1 \\
        --seconds 12 --trace 0

prints every metric by name and unit, then one JSON object on the last
line of stdout: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit("benchmarks/e2e/run.py needs the repo's src/repro package")
sys.path.insert(0, str(REPO_ROOT / "src"))

import host  # noqa: E402
from inputs import FULL, SMOKE, WORKLOADS, Inputs, build_inputs  # noqa: E402
from load import (  # noqa: E402
    CONNECTIONS, Phase, first_request, ping_rtt_us, via_share, window_metrics,
)
from oracle import check_phase  # noqa: E402
from serving import ServerFailed, ServerProcess, stop_own_children  # noqa: E402

from repro.graph.io import write_edge_list  # noqa: E402
from repro.net import ReachabilityClient  # noqa: E402

OUT_DIR = HERE / "out"
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
#: Server spawns per untraced run; ``setup_s`` is their median (the
#: benchmark contract asks for several set-ups per run). Two, because a
#: spawn of ``point_hot`` takes 3-6 s and the contract's 92 runs have
#: under 37 s each.
SETUPS_PER_RUN = 2
CLEAN_TEARDOWN = {"exit_code": 0, "orphans": 0, "shm_leaked": 0}
#: Reply vias that mean a search ran (locally or on a shard worker).
_SEARCH_VIAS = ("bitbatch", "engine", "shard:wave", "shard:cross")


def _placement(inputs: Inputs) -> Tuple[Optional[set], Optional[set]]:
    """``(server cpus, client cpus)``: the client on the last CPU, a
    single-process server on the first. A GIL-bound server whose threads
    roam two cores trades the GIL across them and runs up to 2x slower,
    and differently every run; the fleet keeps all CPUs for its workers."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return (None if inputs.workload.fleet else {cpus[0]}), {cpus[-1]}


async def _setup_once(
    inputs: Inputs, graph_path: Path, workdir: Path, index: int
) -> Tuple[ServerProcess, List[ReachabilityClient], tuple]:
    """Spawn -> ready -> connected -> first own-kind reply; returns the
    server, its connections and ``(time, host.cpu_times())`` at the
    beginning and at the end of set-up."""
    flags = [
        f.format(journal=workdir / f"journal-{index}.wal")
        for f in inputs.workload.serve_flags
    ]
    server = ServerProcess(graph_path, flags, workdir, _placement(inputs)[0])
    begin = (time.perf_counter(), host.cpu_times())
    server.spawn()
    clients: List[ReachabilityClient] = []
    try:
        port = server.wait_ready()
        for _ in range(CONNECTIONS):
            clients.append(await ReachabilityClient.open("127.0.0.1", port))
        await asyncio.wait_for(first_request(inputs, clients[0]), 120.0)
    except BaseException:
        for client in clients:
            await client.close()
        server.kill()
        raise
    return server, clients, (begin, (time.perf_counter(), host.cpu_times()))


async def _drive(
    inputs: Inputs, graph_path: Path, workdir: Path, seconds: float, traced: bool
) -> Dict[str, object]:
    """Set-up(s), warm-up, measured window, teardown audit."""
    setups: List[tuple] = []
    spawns = 1 if traced else SETUPS_PER_RUN
    for index in range(spawns):
        server, clients, interval = await _setup_once(
            inputs, graph_path, workdir, index
        )
        setups.append(interval)
        if index + 1 < spawns:  # the last spawn serves the run
            for client in clients:
                await client.close()
            audit = server.stop()
            if audit != CLEAN_TEARDOWN:
                raise ServerFailed(f"dirty teardown after set-up: {audit}")
    try:
        rtt_us = await ping_rtt_us(clients[1]) if traced else 0.0
        phase = Phase(inputs, server, clients, seconds)
        if traced:
            # First half plain, second half with client spans: their
            # ratio is what recording a span per request costs.
            half = phase.ticks // 2
            phase.stats_at = {0, half, phase.ticks}
            phase.trace_from = phase.warmup_s + half * phase.sub_s
        all_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, _placement(inputs)[1] or all_cpus)
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            result = await phase.run()
        finally:
            gc.enable()
            gc.unfreeze()
            os.sched_setaffinity(0, all_cpus)
        for client in clients:
            await asyncio.wait_for(client.close(), 10.0)
        if not server.alive():
            result.errors.append("server exited before teardown")
        teardown = server.stop()
    except BaseException:
        server.kill()
        raise
    return {
        "setups": setups, "result": result, "teardown": teardown,
        "ping_rtt_us": rtt_us, "stderr": server.stderr_tail(),
    }


def _delta(marks, path: Tuple[str, ...], name: str) -> float:
    def read(frame: Optional[dict]) -> float:
        node = frame or {}
        for key in path:
            node = node.get(key) or {}
        return float(node.get(name, 0))

    return read(marks[-1][4]) - read(marks[0][4])


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> Dict[str, object]:
    """One fresh-server run; returns the full run record."""
    workload = WORKLOADS[name]
    sizes = SMOKE if smoke else FULL
    run_started = time.perf_counter()
    steal_before = host.cpu_times()
    host.calibration_ms()  # first call pays numpy's page faults
    calib = [host.calibration_ms()]
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record: Dict[str, object] = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "smoke": smoke, "host": host.metadata(),
    }
    problems: List[str] = []
    try:
        started = time.perf_counter()
        inputs = build_inputs(
            workload, sizes, seed, seconds, CONNECTIONS, for_probes=traced
        )
        graph_path = workdir / "graph.txt"
        write_edge_list(inputs.graph, graph_path)
        record["inputs_s"] = time.perf_counter() - started
        record["hashes"] = inputs.hashes

        started = time.perf_counter()
        all_cpus = sorted(os.sched_getaffinity(0))
        probes = host.SpeedProbes(all_cpus)
        probes.start()
        try:
            driven = asyncio.run(
                _drive(inputs, graph_path, workdir, seconds, traced)
            )
        finally:
            probes.stop()
        record["serve_s"] = time.perf_counter() - started
        result = driven["result"]
        problems += result.errors + result.refused[:20]
        if result.stream_exhausted:
            problems.append("an input stream ran out (raise its cap)")
        teardown = driven["teardown"]
        if teardown != CLEAN_TEARDOWN:
            problems.append(f"dirty teardown: {teardown} {driven['stderr']}")
        if len(result.marks) < 2:
            raise ServerFailed("; ".join(problems) or "no measured window")

        # The CPUs the server ran on: their speed is what its times scale with.
        on_cpus = sorted(_placement(inputs)[0] or all_cpus)
        whole = window_metrics(
            inputs, result, 0, len(result.marks) - 1,
            speed_at=lambda instants: probes.speed_at(on_cpus, instants),
        )
        started = time.perf_counter()
        checked, wrong = check_phase(inputs, result)
        record["verify_s"] = time.perf_counter() - started
        problems += wrong[:20]
        vias = whole["vias"]
        shares = {
            "fastpath": via_share(vias, "fastpath"),
            "labels": via_share(vias, "labels", "shard:label-pos", "shard:label-neg"),
            "cache": via_share(vias, "cache"),
            "search": via_share(vias, *_SEARCH_VIAS),
        }
        if not smoke:
            if workload.kind == "batch" and shares["cache"] > 0.01:
                problems.append(f"cache share {shares['cache']:.3f} > 1 %")
            if workload.kind == "batch" and shares["search"] < 0.95:
                problems.append(f"search share {shares['search']:.3f} < 95 %")
            if name == "point_hot" and shares["fastpath"] < 0.99:
                problems.append(f"fastpath share {shares['fastpath']:.3f} < 99 %")
        if workload.kind == "churn" and (
            whole["updates_landed"] < 0.93 * whole["updates_due"]
        ):
            problems.append(
                f"{whole['updates_landed']} of {whole['updates_due']} "
                "scheduled updates landed"
            )
        failed = whole["failed"] + len(wrong)
        # Times are reported at the reference speed: CPU time scaled by
        # how fast the CPUs the server ran on were while it was being
        # measured, wall time also by the share of them the hypervisor
        # left to this machine.
        def pace(begin: tuple, end: tuple) -> Tuple[float, float]:
            speed = probes.speed(on_cpus, begin[0], end[0])
            return speed, speed * (1.0 - host.steal_share(begin[1], end[1], on_cpus))

        first, last = result.marks[0], result.marks[-1]
        edges = [mark[0] for mark in result.marks]
        speed, wall_speed = pace((first[0], first[5]), (last[0], last[5]))
        setups = [
            (end[0] - begin[0], pace(begin, end)[1])
            for begin, end in driven["setups"]
        ]
        end_to_end = {
            "qps": (whole["qps"] / wall_speed, "1/s", whole["requests"]),
            "query_p50_ms": (
                whole["query_p50_ms_at_speed_1"] * wall_speed / speed,
                "ms", whole["requests"],
            ),
            "server_cpu_us_per_query": (
                whole["server_cpu_us_per_query"] * speed, "us", whole["requests"]
            ),
            "setup_s": (
                statistics.median(s * at for s, at in setups), "s", len(setups)
            ),
            "rss_mb": (whole["rss_mb"], "MiB", 1),
        }
        record.update(
            whole=whole, shares=shares, verdicts_checked=checked,
            setups=setups, cpu_speed=speed, wall_speed=wall_speed,
            cpu_speed_series={
                cpu: [
                    round(probes.speed([cpu], lo, hi), 4)
                    for lo, hi in zip(edges, edges[1:])
                ]
                for cpu in all_cpus
            },
        )

        layer_values: Dict[str, float] = {}
        if traced:
            layer_values = _trace(
                inputs, workdir, result, driven["ping_rtt_us"], whole, shares, record
            )
            # Both halves at the reference speed, or the ratio is the host's.
            half = (len(result.marks) - 1) // 2
            middle = result.marks[half]
            layer_values["trace.overhead_ratio"] *= (
                pace((first[0], first[5]), (middle[0], middle[5]))[1]
                / pace((middle[0], middle[5]), (last[0], last[5]))[1]
            )
        calib.append(host.calibration_ms())
        steal = host.steal_share(steal_before, host.cpu_times())
        record["host"].update(steal_share=steal, calib_ms=calib)
        if traced:
            layer_values["host.cpu_speed"] = speed
            layer_values["host.steal_share"] = steal
            layer_values["host.calib_ms"] = statistics.fmean(calib)
        per_layer = {
            s["name"]: (float(layer_values[s["name"]]), s["unit"])
            for s in SPEC["per_layer"] if traced
        }
        record.update(
            wall_s=time.perf_counter() - run_started,
            attempted=max(1, whole["attempted"]), failed=failed, problems=problems,
            end_to_end={k: v[0] for k, v in end_to_end.items()},
            per_layer={k: v[0] for k, v in per_layer.items()},
        )
        _print_run(record, end_to_end, per_layer)
        chosen = per_layer if traced else {k: v[:2] for k, v in end_to_end.items()}
        record["line"] = {
            "correct": not problems and failed == 0,
            "attempted": record["attempted"],
            "failed": failed,
            "metrics": {
                k: {"value": v[0], "unit": v[1]} for k, v in chosen.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mode = "traced" if traced else "untraced"
    (OUT_DIR / f"run-{name}-seed{seed}-{mode}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    return record


def _trace(
    inputs: Inputs, workdir: Path, result, rtt_us: float,
    whole: Dict[str, object], shares: Dict[str, float], record: Dict[str, object],
) -> Dict[str, float]:
    """Per-layer metrics, the budget table and the span file."""
    from layers import LayerProbe  # imports the shard layers: traced runs only

    half = (len(result.marks) - 1) // 2
    marks = [result.marks[0], result.marks[half], result.marks[-1]]
    plain = window_metrics(inputs, result, 0, half)
    spanned = window_metrics(inputs, result, half, len(result.marks) - 1)
    waves = _delta(marks, ("server",), "net_coalesced_waves")
    wave_size = (
        _delta(marks, ("server",), "net_coalesced_queries") / waves if waves else 0.0
    )
    probe = LayerProbe(inputs, workdir, round(wave_size))
    probe.run()
    # Keys no probe group measured on this workload read 0.
    m = {s["name"]: 0.0 for s in SPEC["per_layer"]}
    m.update(probe.metrics)
    frame = inputs.sizes.frame if inputs.workload.kind == "batch" else 1
    frames = max(1, whole["requests"])
    shard = ("stats", "shards", "counters")
    if not plain["qps"]:
        raise ServerFailed("no request completed in the untraced half")
    m.update({
        "net.client.ping_rtt_us": rtt_us,
        "net.server.wave_size_mean": wave_size,
        "net.server.shed": _delta(marks, ("server",), "net_shed"),
        "service.engine.via_fastpath_share": shares["fastpath"],
        "service.engine.via_labels_share": shares["labels"],
        "service.engine.via_cache_share": shares["cache"],
        "service.engine.via_search_share": shares["search"],
        "service.cache.hit_share": (
            _delta(marks, ("stats", "counters"), "cache_hits")
            / max(1, whole["completed"])
        ),
        "shard.router.wave_pairs_per_frame": _delta(marks, shard, "route_wave_pairs") / frames,
        "shard.router.cross_pairs_per_frame": _delta(marks, shard, "route_cross_pairs") / frames,
        "shard.router.inflight_stalls_per_frame": _delta(marks, shard, "route_inflight_stalls") / frames,
        "shard.worker.edge_accesses_per_frame": _delta(marks, shard, "worker_edge_accesses") / frames,
        "client.query_p90_ms": whole["query_p90_ms"],
        "client.query_p99_ms": whole["query_p99_ms"],
        "client.cpu_share": whole["client_cpu_share"],
        "client.writer_lag_ms_max": whole["writer_lag_ms_max"],
        "client.update_mean_ms": whole["update_mean_ms"],
        "client.qps_window_cv": whole["qps_window_cv"],
        "trace.overhead_ratio": spanned["qps"] / plain["qps"],
    })
    # The budget: server CPU per request against what the in-process
    # replay of the same request costs, layer by layer.
    cpu_us = whole["server_cpu_us_per_query"] * frame
    request = "query_batch" if frame > 1 else "query"
    # The wrapped pass says what the layers under the engine cost; the
    # engine's own share is the unwrapped total minus those.
    layers_us = {
        k: v for k, v in probe.budget[request].items()
        if not k.startswith("service.engine.")
    }
    layers_us["service.engine (rest)"] = probe.engine_us - sum(layers_us.values())
    m["net.server.overhead_us_per_query"] = (cpu_us - probe.engine_us) / frame
    m["trace.unattributed_us"] = cpu_us - probe.engine_us - probe.codec_us
    record["budget"] = {
        "unit": "us per " + ("frame" if frame > 1 else "query"),
        "server_cpu": cpu_us, "engine_in_process": probe.engine_us,
        "codec_server_side": probe.codec_us,
        "unattributed": m["trace.unattributed_us"],
        "engine_layers_self": layers_us,
        "per_call": {k: v for k, v in probe.budget.items() if k != request},
    }
    with open(OUT_DIR / f"trace-{inputs.workload.name}.jsonl", "w") as handle:
        t0, t1 = marks[0][0], marks[-1][0]
        handle.write(json.dumps(
            {"trace_id": inputs.workload.name, "name": "phase",
             "start": t0, "end": t1, "parent": None}) + "\n")
        for trace_id, name, start, end, parent in result.spans:
            handle.write(json.dumps(
                {"trace_id": trace_id, "name": name, "start": start,
                 "end": end, "parent": parent}) + "\n")
        for index, span in enumerate(probe.tracer.spans):
            handle.write(json.dumps(
                {"trace_id": f"in-process/{index}", "name": span[0],
                 "start": span[1], "end": span[2],
                 "parent": None if span[3] is None else f"in-process/{span[3]}"}
            ) + "\n")
    return m


def _print_run(record, end_to_end, per_layer) -> None:
    name, whole = record["workload"], record["whole"]
    mode = "traced" if record["traced"] else "untraced"
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == name)
    print(f"== {name} seed={record['seed']} {record['seconds']}s {mode} ({why})")
    for key, value in record["hashes"].items():
        print(f"   input {key} sha256 {value}")
    for key, (value, unit, count) in end_to_end.items():
        print(f"{name}/{key:<28}{value:>14.4f} {unit:<6}(n={count})")
    print(f"   cpu speed {record['cpu_speed']:.3f} of the reference "
          f"({record['wall_speed']:.3f} after steal); as timed: "
          f"qps {whole['qps']:.1f}  p50 {whole['query_p50_ms']:.3f} ms  "
          f"server cpu {whole['server_cpu_us_per_query']:.2f} us/query  set-ups "
          + "/".join(f"{s:.2f}" for s, _ in record["setups"]) + " s")
    print(f"   latency p90 {whole['query_p90_ms']:.3f} ms  p99 "
          f"{whole['query_p99_ms']:.3f} ms")
    print(f"   vias {whole['vias']}  verdicts checked {record['verdicts_checked']}"
          f"  failed {record['failed']}/{record['attempted']}")
    if whole["updates_due"]:
        print(f"{name}/update_mean_ms{'':<14}{whole['update_mean_ms']:>14.4f} ms"
              f"    (n={whole['updates_landed']} of {whole['updates_due']} due,"
              f" writer lag max {whole['writer_lag_ms_max']:.1f} ms)")
    print(f"   server cpus {whole['server_cpus']:.2f}  client cpu "
          f"{whole['client_cpu_share']:.2f}  qps window cv "
          f"{whole['qps_window_cv']:.3f}  steal "
          f"{record['host']['steal_share']:.4f}  calib ms "
          + "/".join(f"{c:.1f}" for c in record["host"]["calib_ms"]))
    print(f"   wall {record['wall_s']:.1f} s: inputs {record['inputs_s']:.1f}, "
          f"set-ups + phase + teardown {record['serve_s']:.1f}, "
          f"verdict check {record['verify_s']:.1f}")
    for key in sorted(per_layer):
        value, unit = per_layer[key]
        print(f"{name}/{key:<44}{value:>14.4f} {unit}")
    budget = record.get("budget")
    if budget:
        print(f"   budget, {budget['unit']}:")
        print(f"     server cpu over the wire      {budget['server_cpu']:>12.1f}")
        print(f"     in-process service.engine     {budget['engine_in_process']:>12.1f}")
        for layer, value in sorted(budget["engine_layers_self"].items()):
            print(f"       {layer:<31}{value:>10.1f}")
        print(f"     net.protocol, server side     {budget['codec_server_side']:>12.1f}")
        print(f"     unattributed_us               {budget['unattributed']:>12.1f}")
        for kind, layers in budget["per_call"].items():
            parts = "  ".join(
                f"{k.split('.', 1)[1]}={v:.0f}" for k, v in sorted(layers.items())
            )
            print(f"     one {kind}, self us: {parts}")
    for problem in record["problems"]:
        print(f"   PROBLEM {problem}")


# ----------------------------------------------------------------------
# Sets of runs: the default command, --repeat/--check-noise, --smoke
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run in a fresh interpreter, exactly as the driver starts it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip().split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        line = json.loads(lines[-1])
    except ValueError:
        raise SystemExit(f"{name}: no result line (exit {proc.returncode})")
    line["exit_code"] = proc.returncode
    return line


def _check_line(name: str, line: dict, trace: int) -> List[str]:
    """Schema of one result line against ``BENCHMARK.json``."""
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    errors = []
    if set(line) - {"exit_code"} != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: keys {sorted(line)}")
    if set(line["metrics"]) != {s["name"] for s in wanted}:
        errors.append(
            f"{name}: metric names differ from BENCHMARK.json: "
            f"{sorted(set(line['metrics']) ^ {s['name'] for s in wanted})}"
        )
    for spec in wanted:
        got = line["metrics"].get(spec["name"], {})
        if got.get("unit") != spec["unit"]:
            errors.append(f"{name}/{spec['name']}: unit {got.get('unit')}")
    if not line["correct"] or line["failed"] or line["exit_code"]:
        errors.append(f"{name}: correct={line['correct']} failed={line['failed']} "
                      f"exit={line['exit_code']}")
    return errors


def _quartiles(series: List[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(series, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def run_sets(args) -> int:
    """The four workloads ``--repeat`` times, seeds ``seed..seed+N-1``.

    ``--check-noise`` runs that set twice and applies the two tests a
    benchmark is accepted on: within each set every metric's
    interquartile spread over its median stays inside the metric's bound
    (``setup_s`` excepted: its bound is judged on set medians only,
    which is also why each run already reports a median of spawns), and
    no median of the second set is worse than the first set's by more
    than the bound.
    """
    specs = {s["name"]: s for s in SPEC["end_to_end"]}
    names = [w["name"] for w in SPEC["workloads"]]
    errors: List[str] = []
    medians: List[Dict[Tuple[str, str], float]] = []
    for set_index in range(2 if args.check_noise else 1):
        values: Dict[Tuple[str, str], List[float]] = {}
        for repeat in range(args.repeat):
            for name in names:
                for trace in ([0, 1] if args.trace else [0]):
                    line = _child(
                        name, args.seed + repeat, args.seconds, trace, args.smoke
                    )
                    errors += _check_line(name, line, trace)
                    if not trace:
                        for metric, got in line["metrics"].items():
                            values.setdefault((name, metric), []).append(got["value"])
        if args.repeat < 2:
            continue
        print(f"\n== set {set_index + 1}: {args.repeat} runs per workload, "
              f"seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"{'workload/metric':<44}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        medians.append({})
        for (name, metric), series in values.items():
            q1, median, q3, spread = _quartiles(series)
            medians[-1][name, metric] = median
            bound = specs[metric]["bound"]
            noisy = args.check_noise and metric != "setup_s" and spread > bound
            print(f"{name + '/' + metric:<44}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.4f}{bound:>7.2f}"
                  + ("  NOISY: spread exceeds bound" if noisy else ""))
            if noisy:
                errors.append(f"{name}/{metric}: spread {spread:.3f} > {bound}")
    if len(medians) == 2:
        print("\n== set medians, second against first")
        for (name, metric), first in medians[0].items():
            second = medians[1][name, metric]
            worse = (second - first) / first
            if specs[metric]["better"] == "higher":
                worse = -worse
            bound = specs[metric]["bound"]
            print(f"{name + '/' + metric:<44}{first:>12.4f}{second:>12.4f}"
                  f"{worse:>+9.4f}{bound:>7.2f}"
                  + ("  NOISY: medians differ by more than the bound"
                     if worse > bound else ""))
            if worse > bound:
                errors.append(f"{name}/{metric}: set medians {first:.4f} -> "
                              f"{second:.4f}, worse by {worse:.3f} > {bound}")
    if args.smoke:
        errors += _smoke_hashes()
    for error in errors:
        print(f"FAIL {error}")
    print("ok" if not errors else f"{len(errors)} problem(s)")
    return 1 if errors else 0


def _smoke_hashes() -> List[str]:
    """Same seed => same input hashes; another seed => other hashes."""
    errors = []
    for name, workload in WORKLOADS.items():
        a, b, c = (
            build_inputs(workload, SMOKE, seed, 2.0, CONNECTIONS, for_probes=False).hashes
            for seed in (1, 1, 2)
        )
        if a != b:
            errors.append(f"{name}: input hashes differ for the same seed")
        if any(a[k] == c[k] for k in a):
            errors.append(f"{name}: input hashes equal for different seeds")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-noise", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(SPEC["run_seconds"])
    if args.workload is None:
        return run_sets(args)
    try:
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    finally:
        # Nothing this run started outlives it, whichever way it ends.
        stragglers = stop_own_children()
    if stragglers:
        sys.exit(f"processes still running at the end of the run: {stragglers}")
    print(json.dumps(record["line"], allow_nan=False))
    return 0 if record["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
