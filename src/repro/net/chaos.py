"""Network chaos harness: kill, stall, partition, corrupt — then prove exactness.

Each scenario stages a real failure against real processes and sockets,
runs a mixed workload through the public client surface, and holds the
line the whole robustness layer exists for: **no wrong answer, ever** —
failures may cost latency (bounded, measured) but never correctness.
Every scenario returns one results row; :func:`run_chaos_net` drives a
set of them and writes ``results/ext_chaos_net.json`` plus a directory
of post-mortem artifacts (journals, supervisor log, primary output).

Scenarios
---------
``kill-primary``
    The primary runs as a *subprocess* (``python -m repro serve``) under
    a :class:`~repro.net.supervisor.ClusterSupervisor` with two
    in-process replicas. A mixed insert/query stream flows through a
    :class:`~repro.net.client.FailoverClient`; mid-stream the primary
    gets ``SIGKILL`` (kill -9 — no goodbye, no flush). The supervisor
    must detect, fence, and promote without operator action; the client
    must reconnect transparently; measured unavailability must stay
    under the detection + promotion budget. Because replication is
    asynchronous, the acked tail past the promoted watermark is *lost*
    by design — the harness reconciles by re-sending the acked update
    log past the watermark in order (set-semantics updates make replays
    idempotent), then sweeps a BFS oracle: zero mismatches.
``worker-respawn``
    A sharded service loses one shard worker to ``SIGKILL`` mid-stream.
    The fleet must self-heal against the same plan (no repartition) and
    every answer — during and after the degraded window — must match
    the oracle.
``stop-worker``
    The nastier cousin: ``SIGSTOP``. The worker is alive but wedged, so
    only the call timeout can convict it; the router's SIGKILL-based
    ``kill()`` must reap a stopped process, and the respawn must heal.
``partition-replica``
    A replica's journal tailer is severed and re-pointed at a black
    hole while the primary keeps writing. Backoff must grow while
    partitioned, and after the partition heals the replica must
    converge to the exact watermark — reads from it match the oracle.
``torn-frames``
    Raw socket writes of truncated, oversized, and undecodable frames
    interleave with a legitimate workload. The server must drop the
    poisoned connections (counted) and keep answering everyone else
    exactly.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import signal
import struct
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph.digraph import DynamicDiGraph
from repro.graph.io import write_edge_list
from repro.graph.traversal import is_reachable_bfs
from repro.net import protocol
from repro.net.client import FailoverClient, ReachabilityClient
from repro.net.replica import ReplicaNode
from repro.net.server import ReachabilityServer
from repro.net.supervisor import ClusterSupervisor

SCENARIOS = (
    "kill-primary",
    "worker-respawn",
    "stop-worker",
    "partition-replica",
    "torn-frames",
)


class ScenarioSkipped(Exception):
    """The environment cannot run this scenario (recorded, not failed)."""


def _chaos_graph(seed: int = 0, num_cycles: int = 24, cycle: int = 5):
    """A chain of cycles with skip links: many SCCs, deep condensation,
    answers in both directions — the same shape the shard tests use."""
    rng = random.Random(seed)
    g = DynamicDiGraph()
    for c in range(num_cycles):
        base = c * cycle
        for i in range(cycle):
            g.add_edge(base + i, base + (i + 1) % cycle)
        if c:
            g.add_edge(
                base - cycle + rng.randrange(cycle), base + rng.randrange(cycle)
            )
    n = num_cycles * cycle
    for _ in range(num_cycles):
        a, b = rng.randrange(num_cycles), rng.randrange(num_cycles)
        if a < b:
            g.add_edge(
                a * cycle + rng.randrange(cycle), b * cycle + rng.randrange(cycle)
            )
    return g


def _check_pairs(graph: DynamicDiGraph, count: int, seed: int) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    verts = sorted(graph.vertices())
    return [(rng.choice(verts), rng.choice(verts)) for _ in range(count)]


def _oracle_sweep(
    graph: DynamicDiGraph, answers: Dict[Tuple[int, int], bool]
) -> int:
    return sum(
        1
        for (s, t), answer in answers.items()
        if answer != is_reachable_bfs(graph, s, t)
    )


def _clear_journals(workdir: Path, *stems: str) -> None:
    """Remove the journal/checkpoint files a scenario is about to create.

    A reused artifacts directory still holds the previous run's WALs,
    and a node that finds one recovers from it — serving the old run's
    edges against the new run's oracle. Only the named stems go;
    nothing else in the directory is touched.
    """
    for stem in stems:
        for suffix in (".wal", ".wal.tmp", ".ckpt", ".ckpt.alt"):
            (workdir / (stem + suffix)).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# kill-primary
# ----------------------------------------------------------------------
async def _spawn_primary_subprocess(
    graph: DynamicDiGraph, workdir: Path
) -> Tuple[asyncio.subprocess.Process, str, int, Path]:
    """``python -m repro serve`` on an ephemeral port; returns its address.

    The primary must be a *separate OS process* so SIGKILL is the real
    thing — no in-process shortcut can flush state on the way down.
    """
    graph_file = workdir / "primary_graph.txt"
    write_edge_list(graph, graph_file)
    wal = workdir / "primary.wal"
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    stderr_file = open(workdir / "primary.stderr", "wb")
    proc = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro",
        "serve",
        str(graph_file),
        "--port",
        "0",
        "--journal",
        str(wal),
        "--supportive",
        "0",
        stdout=asyncio.subprocess.PIPE,
        stderr=stderr_file,
        env=env,
    )
    stderr_file.close()
    # The serve banner is "serving n=... m=... on HOST:PORT (...)".
    assert proc.stdout is not None
    line = await asyncio.wait_for(proc.stdout.readline(), 30.0)
    text = line.decode("utf-8", "replace")
    try:
        addr = text.split(" on ", 1)[1].split()[0]
        host, _, port = addr.rpartition(":")
        return proc, host, int(port), wal
    except (IndexError, ValueError):
        proc.kill()
        raise RuntimeError(f"could not parse serve banner: {text!r}")


async def scenario_kill_primary(
    *,
    workdir: Path,
    ops: int = 160,
    checks: int = 150,
    heartbeat_interval_s: float = 0.05,
    heartbeat_misses: int = 3,
    seed: int = 0,
) -> Dict[str, object]:
    rng = random.Random(seed)
    graph = _chaos_graph(seed)
    oracle = graph.copy()
    verts = sorted(graph.vertices())
    next_vertex = max(verts) + 1

    _clear_journals(workdir, "primary", "replica0", "replica1")
    proc, host, port, _wal = await _spawn_primary_subprocess(graph, workdir)
    supervisor = ClusterSupervisor(
        host,
        port,
        heartbeat_interval_s=heartbeat_interval_s,
        heartbeat_misses=heartbeat_misses,
    )
    replicas: List[ReplicaNode] = []
    client: Optional[FailoverClient] = None
    try:
        for i in range(2):
            node = ReplicaNode(
                host,
                port,
                workdir / f"replica{i}.wal",
                service_kwargs={"num_supportive": 0},
                reconnect_delay_s=0.05,
                seed=seed + i,
            )
            await node.serve()
            replicas.append(node)
        await supervisor.start()
        for node in replicas:
            supervisor.add_replica(node)
        client = await FailoverClient.open(
            *supervisor.address,
            base_delay_s=0.05,
            retry_cap_s=0.5,
            seed=seed,
        )

        # Mixed stream with the kill landing mid-way. Every acked update
        # also lands in the oracle and the acked log; pre-kill query
        # answers are checked inline (primary state == acked set).
        acked: List[Tuple[int, str, int, int]] = []
        kill_at = ops // 2
        kill_index = -1
        t_kill = t_recovered = None
        inline_mismatches = 0
        for i in range(ops):
            if i == kill_at:
                kill_index = len(acked)
                t_kill = time.perf_counter()
                proc.kill()  # SIGKILL: the whole point of the scenario
            if rng.random() < 0.55:
                s, t = rng.choice(verts), rng.choice(verts)
                outcome = await client.query(s, t)
                if t_kill is None:
                    if outcome.answer != is_reachable_bfs(oracle, s, t):
                        inline_mismatches += 1
                elif t_recovered is None:
                    t_recovered = time.perf_counter()
            else:
                if rng.random() < 0.25 and oracle.num_edges > graph.num_edges:
                    # Delete one of the edges this run inserted.
                    ver_, _, u, v = rng.choice(
                        [e for e in acked if e[1] == "+"]
                    )
                    reply = await client.remove_edge(u, v)
                    if reply["applied"]:
                        oracle.remove_edge(u, v)
                        acked.append((int(reply["version"]), "-", u, v))
                else:
                    u = rng.choice(verts)
                    v = next_vertex
                    next_vertex += 1
                    reply = await client.add_edge(u, v)
                    if reply["applied"]:
                        oracle.add_edge(u, v)
                        acked.append((int(reply["version"]), "+", u, v))
                if t_kill is not None and t_recovered is None:
                    t_recovered = time.perf_counter()
        unavail_s = (
            (t_recovered - t_kill)
            if (t_kill is not None and t_recovered is not None)
            else None
        )

        # The supervisor must have failed over on its own by now.
        deadline = time.monotonic() + 10.0
        while supervisor.last_failover is None:
            if time.monotonic() > deadline:
                raise RuntimeError("supervisor never promoted a replica")
            await asyncio.sleep(0.05)
        failover = dict(supervisor.last_failover)
        promote_s = float(failover["promote_s"])

        # Asynchronous replication loses the acked tail past the
        # promoted watermark W. Reconcile: re-send the pre-kill acked
        # log entries with version > W, in log order — set-semantics
        # updates replay idempotently, so entries that did survive
        # dedup to no-ops while the lost tail is restored.
        watermark = int(failover["winner_watermark"])
        resent = 0
        for ver, op, u, v in acked[:kill_index]:
            if ver <= watermark:
                continue
            if op == "+":
                await client.add_edge(u, v)
            else:
                await client.remove_edge(u, v)
            resent += 1

        # Final sweep: the cluster's answers vs a BFS oracle over every
        # acked update. Zero mismatches is the acceptance bar.
        pairs = _check_pairs(oracle, checks, seed + 17)
        answers: Dict[Tuple[int, int], bool] = {}
        for s, t in pairs:
            answers[(s, t)] = (await client.query(s, t)).answer
        mismatches = _oracle_sweep(oracle, answers) + inline_mismatches

        # Unavailability budget: detection (miss threshold, plus one
        # beat of phase slack — the first miss can land a full interval
        # after the kill), promotion (which already includes the lease
        # fence), and the client's capped reconnect backoff.
        bound_s = (
            (heartbeat_misses + 1) * heartbeat_interval_s
            + promote_s
            + 2 * 0.5
        )
        (workdir / "supervisor.log").write_text(
            "\n".join(supervisor.log) + "\n"
        )
        return {
            "scenario": "kill-primary",
            "ops": ops,
            "acked_updates": len(acked),
            "unavail_s": round(unavail_s, 4) if unavail_s is not None else None,
            "unavail_bound_s": round(bound_s, 4),
            "bound_met": unavail_s is not None and unavail_s < bound_s,
            "promote_s": round(promote_s, 4),
            "epoch": supervisor.epoch,
            "promoted_watermark": watermark,
            "resent_updates": resent,
            "failover_retries": client.counters.get("failover_retries", 0),
            "update_replays": client.counters.get("update_replays", 0),
            "oracle_checked": len(answers),
            "mismatches": mismatches,
            "ok": mismatches == 0
            and unavail_s is not None
            and unavail_s < bound_s,
        }
    finally:
        if client is not None:
            await client.close()
        await supervisor.stop()
        for node in replicas:
            await node.close()
        if proc.returncode is None:
            proc.kill()
        with contextlib.suppress(Exception):
            await asyncio.wait_for(proc.wait(), 10.0)


# ----------------------------------------------------------------------
# worker-respawn / stop-worker
# ----------------------------------------------------------------------
def _sharded_workload(
    *,
    sabotage: Callable[[object], Dict[str, object]],
    scenario: str,
    ops: int,
    checks: int,
    seed: int,
    call_timeout_s: float = 30.0,
) -> Dict[str, object]:
    """Shared driver: workload against a sharded service with one
    mid-stream ``sabotage(router)``, oracle equality throughout.

    Phased so the no-repartition check is clean: queries before and
    after the fault (a version-refresh redeploy is legitimate and would
    muddy the ``deploys`` counter), then a mixed update/query tail once
    the heal is asserted, then the final oracle sweep.
    """
    from repro.service import ReachabilityService

    rng = random.Random(seed)
    graph = _chaos_graph(seed, num_cycles=20)
    oracle = graph.copy()
    verts = sorted(graph.vertices())
    mismatches = 0

    def run_batch(svc) -> None:
        nonlocal mismatches
        batch = [(rng.choice(verts), rng.choice(verts)) for _ in range(24)]
        outcomes = svc.query_batch(batch)
        for (s, t), outcome in zip(batch, outcomes):
            if outcome.answer != is_reachable_bfs(oracle, s, t):
                mismatches += 1

    with ReachabilityService(
        oracle,  # the service graph IS the oracle: updates hit both
        shards=2,
        num_supportive=0,
        cache_capacity=16,
        shard_call_timeout_s=call_timeout_s,
        # The label tier can answer whole batches without a worker round
        # trip; disable it so every batch actually exercises the fleet —
        # a SIGSTOPped worker is only convicted by a timed-out call.
        use_labels=False,
    ) as svc:
        for _ in range(max(2, ops // 4)):
            run_batch(svc)  # deploys the fleet on first routed batch
        router = svc.router
        if router is None:
            raise ScenarioSkipped("service did not deploy a shard fleet")
        deploys_before = router.counters.get("deploys", 0)
        version_before = router.version
        sabotage_info = sabotage(router)
        # Degraded window + self-heal: keep querying; the respawn probe
        # wave rides on batch execution.
        healed_in = None
        for i in range(max(8, ops // 2)):
            run_batch(svc)
            if healed_in is None and router.healthy:
                healed_in = i + 1
        deploys_after_heal = router.counters.get("deploys", 0)
        repartitioned = (
            deploys_after_heal != deploys_before
            or router.version != version_before
        )
        # Mixed tail: real updates (service graph is the oracle), more
        # queries — refresh redeploys past this point are legitimate.
        next_vertex = max(verts) + 1
        for _ in range(max(4, ops // 4)):
            if rng.random() < 0.4:
                svc.add_edge(rng.choice(verts), next_vertex)
                next_vertex += 1
            else:
                run_batch(svc)
        final_pairs = _check_pairs(oracle, checks, seed + 23)
        outcomes = svc.query_batch(final_pairs)
        for (s, t), outcome in zip(final_pairs, outcomes):
            if outcome.answer != is_reachable_bfs(oracle, s, t):
                mismatches += 1
        counters = dict(router.counters)
        row = {
            "scenario": scenario,
            "ops": ops,
            "healthy": router.healthy,
            "healed_in_batches": healed_in,
            "worker_respawns": counters.get("worker_respawns", 0),
            "worker_failures": counters.get("worker_failures", 0),
            "repartitioned": repartitioned,
            "route_unresolved": counters.get("route_unresolved", 0),
            "oracle_checked": checks,
            "mismatches": mismatches,
        }
        row.update(sabotage_info)
        row["ok"] = (
            mismatches == 0
            and healed_in is not None
            and not repartitioned
            and row["worker_respawns"] >= 1
        )
        return row


def scenario_worker_respawn(
    *, ops: int = 40, checks: int = 120, seed: int = 0
) -> Dict[str, object]:
    def sabotage(router) -> Dict[str, object]:
        victim = router._workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(5)
        return {"killed_worker": 0, "fault": "SIGKILL"}

    return _sharded_workload(
        sabotage=sabotage,
        scenario="worker-respawn",
        ops=ops,
        checks=checks,
        seed=seed,
    )


def scenario_stop_worker(
    *, ops: int = 40, checks: int = 120, seed: int = 0
) -> Dict[str, object]:
    def sabotage(router) -> Dict[str, object]:
        # SIGSTOP: the process stays alive, so only the call timeout can
        # convict it — and the router's SIGKILL-based kill() must reap a
        # stopped process (SIGTERM would queue behind the stop forever).
        victim = router._workers[1]
        os.kill(victim.process.pid, signal.SIGSTOP)
        return {"killed_worker": 1, "fault": "SIGSTOP"}

    return _sharded_workload(
        sabotage=sabotage,
        scenario="stop-worker",
        ops=ops,
        checks=checks,
        seed=seed,
        # The stopped worker is only detected by timeout; keep it short
        # so the scenario converges quickly.
        call_timeout_s=1.5,
    )


# ----------------------------------------------------------------------
# partition-replica
# ----------------------------------------------------------------------
async def scenario_partition_replica(
    *, workdir: Path, updates: int = 60, checks: int = 120, seed: int = 0
) -> Dict[str, object]:
    from repro.service import ReachabilityService

    graph = _chaos_graph(seed)
    oracle = graph.copy()
    verts = sorted(graph.vertices())
    _clear_journals(workdir, "partition_primary", "partition_replica")
    service = ReachabilityService(
        graph.copy(),
        num_supportive=0,
        journal=workdir / "partition_primary.wal",
    )
    server = await ReachabilityServer(service, port=0).start()
    node = ReplicaNode(
        *server.address,
        workdir / "partition_replica.wal",
        service_kwargs={"num_supportive": 0},
        reconnect_delay_s=0.05,
        reconnect_delay_max_s=0.4,
        seed=seed,
    )
    runner = asyncio.create_task(node.run())
    try:
        loop = asyncio.get_running_loop()
        next_vertex = max(verts) + 1
        real_host, real_port = server.address

        async def push(count: int) -> None:
            nonlocal next_vertex
            rng = random.Random(seed + count)
            for _ in range(count):
                u = rng.choice(verts)
                await loop.run_in_executor(
                    None, service.add_edge, u, next_vertex
                )
                oracle.add_edge(u, next_vertex)
                next_vertex += 1

        await push(updates // 3)
        deadline = time.monotonic() + 15.0
        while node.watermark < service.watermark:
            if time.monotonic() > deadline:
                raise RuntimeError("replica never converged pre-partition")
            await asyncio.sleep(0.02)

        # Partition: repoint the tailer at a black hole (a port nobody
        # listens on) and keep writing. The replica must keep backing
        # off — growing, jittered — instead of spinning.
        node.repoint("127.0.0.1", 1)  # connect refused instantly
        await push(updates // 3)
        await asyncio.sleep(0.5)
        partitioned_stats = node.stats()
        stalled_watermark = node.watermark

        # Heal the partition; the replica resubscribes at its watermark
        # and version-stamp dedup hands the stream over exactly.
        node.repoint(real_host, real_port)
        await push(updates - 2 * (updates // 3))
        deadline = time.monotonic() + 15.0
        while node.watermark < service.watermark:
            if time.monotonic() > deadline:
                break
            await asyncio.sleep(0.02)
        converged = node.watermark == service.watermark

        pairs = _check_pairs(oracle, checks, seed + 29)
        answers: Dict[Tuple[int, int], bool] = {}
        for s, t in pairs:
            outcome = await loop.run_in_executor(
                None, node.service.query, s, t
            )
            answers[(s, t)] = outcome.answer
        mismatches = _oracle_sweep(oracle, answers)
        stats = node.stats()
        return {
            "scenario": "partition-replica",
            "updates": updates,
            "stalled_watermark": stalled_watermark,
            "partition_backoff_attempts": partitioned_stats["backoff"][
                "attempts"
            ],
            "severed": stats["severed"],
            "reconnects": stats["reconnects"],
            "records_applied": stats["records_applied"],
            "converged": converged,
            "oracle_checked": len(answers),
            "mismatches": mismatches,
            "ok": converged
            and mismatches == 0
            and int(partitioned_stats["backoff"]["attempts"]) >= 2,
        }
    finally:
        node.stop()
        with contextlib.suppress(Exception):
            await asyncio.wait_for(runner, 10.0)
        await node.close()
        await server.stop()
        service.close()


# ----------------------------------------------------------------------
# torn-frames
# ----------------------------------------------------------------------
async def _send_raw(host: str, port: int, payload: bytes) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    with contextlib.suppress(ConnectionError):
        await writer.drain()
    writer.close()
    with contextlib.suppress(Exception):
        await writer.wait_closed()


async def scenario_torn_frames(
    *, ops: int = 120, checks: int = 120, seed: int = 0
) -> Dict[str, object]:
    from repro.service import ReachabilityService

    rng = random.Random(seed)
    graph = _chaos_graph(seed)
    oracle = graph.copy()
    verts = sorted(graph.vertices())
    service = ReachabilityService(graph.copy(), num_supportive=0)
    server = await ReachabilityServer(service, port=0).start()
    host, port = server.address
    torn = [
        # Header promises 100 bytes, the connection dies after 10.
        struct.pack(">I", 100) + b"0123456789",
        # Oversized length: a framing bug, connection-fatal by contract.
        struct.pack(">I", protocol.MAX_FRAME + 1),
        # Complete frame, undecodable body.
        struct.pack(">I", 8) + b"not-json",
        # Truncated header itself.
        b"\x00\x00",
    ]
    next_vertex = max(verts) + 1
    mismatches = 0
    injected = 0
    try:
        client = await ReachabilityClient.open(host, port)
        try:
            for i in range(ops):
                if i % 10 == 5:
                    await _send_raw(host, port, torn[injected % len(torn)])
                    injected += 1
                if rng.random() < 0.7:
                    s, t = rng.choice(verts), rng.choice(verts)
                    outcome = await client.query(s, t)
                    if outcome.answer != is_reachable_bfs(oracle, s, t):
                        mismatches += 1
                else:
                    u = rng.choice(verts)
                    reply = await client.add_edge(u, next_vertex)
                    if reply["applied"]:
                        oracle.add_edge(u, next_vertex)
                    next_vertex += 1
            pairs = _check_pairs(oracle, checks, seed + 31)
            answers = {}
            for s, t in pairs:
                answers[(s, t)] = (await client.query(s, t)).answer
            mismatches += _oracle_sweep(oracle, answers)
        finally:
            await client.close()
        protocol_errors = server.counters.get("net_protocol_errors", 0)
        return {
            "scenario": "torn-frames",
            "ops": ops,
            "injected_frames": injected,
            "protocol_errors": protocol_errors,
            "oracle_checked": checks,
            "mismatches": mismatches,
            "ok": mismatches == 0 and protocol_errors >= 1,
        }
    finally:
        await server.stop()
        service.close()


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_chaos_net(
    scenarios: Optional[List[str]] = None,
    *,
    workdir: Path,
    out: Optional[Path] = None,
    heartbeat_interval_s: float = 0.05,
    heartbeat_misses: int = 3,
    ops: int = 160,
    checks: int = 120,
    seed: int = 0,
    echo: Optional[Callable[[str], None]] = print,
) -> Tuple[List[Dict[str, object]], bool]:
    """Run the selected scenarios; returns ``(rows, all_ok)``.

    ``workdir`` collects the post-mortem artifacts (journals, the
    supervisor log, the subprocess primary's stderr) regardless of
    outcome — CI uploads it when the job fails. ``out`` (optional)
    writes the standard results-record JSON.
    """
    selected = list(scenarios or SCENARIOS)
    unknown = set(selected) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenarios: {sorted(unknown)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rows: List[Dict[str, object]] = []
    all_ok = True
    for name in selected:
        if echo:
            echo(f"chaos-net: running {name} ...")
        try:
            if name == "kill-primary":
                row = asyncio.run(
                    scenario_kill_primary(
                        workdir=workdir,
                        ops=ops,
                        checks=checks,
                        heartbeat_interval_s=heartbeat_interval_s,
                        heartbeat_misses=heartbeat_misses,
                        seed=seed,
                    )
                )
            elif name == "worker-respawn":
                row = scenario_worker_respawn(checks=checks, seed=seed)
            elif name == "stop-worker":
                row = scenario_stop_worker(checks=checks, seed=seed)
            elif name == "partition-replica":
                row = asyncio.run(
                    scenario_partition_replica(
                        workdir=workdir, checks=checks, seed=seed
                    )
                )
            else:
                row = asyncio.run(
                    scenario_torn_frames(ops=ops, checks=checks, seed=seed)
                )
        except ScenarioSkipped as exc:
            row = {"scenario": name, "skipped": str(exc), "ok": True}
        rows.append(row)
        if not row.get("ok"):
            all_ok = False
        if echo:
            status = (
                "skipped: " + str(row["skipped"])
                if "skipped" in row
                else ("ok" if row.get("ok") else "FAILED")
            )
            detail = ", ".join(
                f"{k}={v}"
                for k, v in row.items()
                if k not in {"scenario", "ok", "skipped"}
            )
            echo(f"chaos-net: {name}: {status}" + (f" ({detail})" if detail else ""))
    if out is not None:
        record = [
            {
                "experiment_id": "ext_chaos_net",
                "description": (
                    "network chaos harness: kill -9 the primary (supervised "
                    "failover), SIGKILL/SIGSTOP shard workers (supervised "
                    "respawn), partition a replica's tailer, inject torn "
                    "frames — mixed workload vs BFS oracle, zero mismatches"
                ),
                "parameters": {
                    "scenarios": selected,
                    "heartbeat_interval_s": heartbeat_interval_s,
                    "heartbeat_misses": heartbeat_misses,
                    "ops": ops,
                    "checks": checks,
                    "seed": seed,
                },
                "rows": rows,
            }
        ]
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n")
        if echo:
            echo(f"chaos-net: wrote {out}")
    return rows, all_ok
