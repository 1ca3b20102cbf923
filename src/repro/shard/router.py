"""Scatter–gather query routing over a shard fleet.

The router owns one :class:`~repro.shard.partition.ShardPlan`, one
published shared-memory segment per shard, and a pool of spawned workers
(one per shard by default). Each (source, target) pair of a batch walks
:func:`classify_pair` — the one O(1) rule ladder — and then, if no rule
answered, a worker search:

1. **same SCC** → ``True`` (Tarjan ids from the partition);
2. **class summaries** → exact ``True``/``False`` for every pair that
   touches or could pass through a split class (see
   :mod:`repro.shard.partition`);
3. **quotient closure** → ``False`` when ``shard(t)`` is unreachable
   from ``shard(s)`` in the shard DAG;
4. **degree liveness** → ``False`` when the source has no routed
   out-edge or the target no routed in-edge;
5. **intra-shard** (both endpoints in one closed segment) → one
   ≤64-lane bit-parallel wave over that shard's CSR, verdicts final;
6. **cross-shard** → scatter–gather: lanes are packed 64 to a group,
   a worker computes the bit-label closure of the lanes' entry vertices
   in one shard (:func:`~repro.graph.bitsearch.csr_bit_reach`), and
   the router joins returned boundary masks across shards along the
   condensation DAG's cross edges, pruning lanes per shard through the
   quotient closure. Monotone per-shard ``sent`` masks make the fixpoint
   terminate; draining without reaching a lane's target proves its
   negative (closures are exhaustive).

**Containment and respawn.** Any worker failure — died process, pipe
error, call timeout, stale version, expired budget — marks that worker
dead and reroutes the affected pairs to the caller as *unresolved*; the
serving engine then answers them on its own single-process path. A dead
worker never wedges a batch. The fleet then *self-heals*: a dead
worker's shared-memory segments stay published, so
:meth:`ShardRouter.respawn_dead` spawns a replacement process that
re-attaches the same :class:`~repro.shard.partition.ShardPlan` — no
repartition, no republish — and probes it through the mapping before
trusting it. ``execute_batch`` triggers the respawn automatically (rate
limited by ``respawn_cooldown_s``, capped per slot by
``max_worker_respawns``), so the degraded window is one batch, not one
epoch; :meth:`refresh` remains the heavier fallback that respawns the
fleet against a *new* plan.

**Swap protocol.** On a graph epoch change the engine calls
:meth:`refresh`: the router repartitions, publishes version-stamped
segments, and either swaps workers in place (same worker count, all
alive) or respawns the fleet; old segments are unlinked after the swap
acknowledges.

**One scheduler.** Workers are a *pool*, not shard-bound processes:
every worker attaches every shard's segment (shared physical pages — the
cost is page-table entries), so any wave or closure step can run on any
worker. A batch's intra waves and cross-group closure steps all become
tagged jobs on one :class:`~repro.shard.pipeline.PipelineRun` reactor,
which multiplexes all worker pipes with
:func:`multiprocessing.connection.wait`, keeps up to
:data:`~repro.shard.pipeline.INFLIGHT_WINDOW` requests in flight per
worker, and advances each cross-shard fixpoint the moment its own
replies land (the monotone sent masks make the fixpoint confluent, so no
round barrier is needed). The reactor is the only way a serving wave or
closure step reaches a worker; a point query arrives as a batch of one
and rides the same machinery. The control plane
(ping, probe, swap, warm-up wave) speaks the same ``(req_id, msg)`` wire
shape through :meth:`ShardWorkerHandle.call`, one request at a time.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.digraph import DynamicDiGraph
from repro.graph.snapshot import CSRSnapshot
from repro.shard import pipeline
from repro.shard.memory import SegmentHandle, publish_snapshot, segment_name
from repro.shard.partition import ShardPlan, partition_graph
from repro.shard.worker import shard_worker_main

#: Lanes per cross-shard scatter–gather group (one uint64 word).
GROUP_LANES = 64

#: Process-unique router tokens: two routers in one process may publish
#: the same (shard, version), so each suffixes its segment names.
_ROUTER_TOKENS = itertools.count(1)

Pair = Tuple[int, int]
#: A resolved routed verdict: (answer, how).
Verdict = Tuple[bool, str]

#: Shared verdict tuples — the rule ladder emits thousands per batch.
_VERDICT_SCC: Verdict = (True, "scc")
_VERDICT_CLASS: Verdict = (True, "class")
_VERDICT_CLASS_NEG: Verdict = (False, "class-neg")
_VERDICT_QUOTIENT: Verdict = (False, "quotient")
_VERDICT_DEG: Verdict = (False, "deg")
_VERDICT_LABEL_POS: Verdict = (True, "label-pos")
_VERDICT_LABEL_NEG: Verdict = (False, "label-neg")


def classify_pair(plan: ShardPlan, s: int, t: int):
    """Run one pair through the O(1) rule ladder — the only copy of it.

    Returns ``("resolved", (answer, how))`` when a rule answers,
    ``("intra", shard)`` / ``("cross", (ks, kt))`` when a search is
    needed, or ``("unknown", None)`` when an endpoint is not in the
    plan. Batches (:meth:`ShardRouter.execute_batch`) and workload
    probes walk this one function; the per-rule
    ``route_<how>`` counters are tallied from the returned ``how``.
    """
    ks = plan.shard_of.get(s)
    kt = plan.shard_of.get(t)
    if ks is None or kt is None:
        return ("unknown", None)
    if plan.scc_of[s] == plan.scc_of[t]:
        return ("resolved", _VERDICT_SCC)
    for cid, reaches in plan.reaches_class.items():
        if s in reaches and t in plan.reached_from_class[cid]:
            return ("resolved", _VERDICT_CLASS)
    # An endpoint inside a split class with no through-class verdict
    # above is an exact negative: every path from (to) a class member
    # passes the class itself.
    if (
        plan.shards[ks].scc_class is not None
        or plan.shards[kt].scc_class is not None
    ):
        return ("resolved", _VERDICT_CLASS_NEG)
    if kt not in plan.quotient_reach[ks]:
        return ("resolved", _VERDICT_QUOTIENT)
    # Degree liveness: a source with no routed out-edge (or a target
    # with no routed in-edge) in its shard cannot be on any path the
    # fleet could find — an exact negative for two set probes. On
    # sparse peripheries this keeps most of a batch off the wire.
    if s not in plan.live_out[ks] or t not in plan.live_in[kt]:
        return ("resolved", _VERDICT_DEG)
    if ks == kt:
        return ("intra", ks)
    return ("cross", (ks, kt))


class WorkerDied(Exception):
    """A shard worker failed mid-call (process death, timeout, error)."""


class _Stale(Exception):
    """Worker answered for a different graph epoch."""


class _OverBudget(Exception):
    """Worker gave up under its time/edge budget."""


class ShardWorkerHandle:
    """The primary's handle on one spawned shard worker."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.alive = True
        self._calls = 0

    def call(self, msg: Tuple, timeout_s: float) -> Tuple:
        """One control-plane round trip: ping / probe / swap / warm wave.

        Sends ``(req_id, msg)`` and returns the reply payload once the
        worker echoes the same id. Control ids count down from -1, the
        reactor's run-local ids up from 0, so a reply left over from
        anything else can never be mistaken for this call's. Only valid
        while no reactor run has requests in flight on this pipe.
        """
        if not self.alive:
            raise WorkerDied("worker already marked dead")
        self._calls += 1
        req_id = -self._calls
        try:
            self.conn.send((req_id, msg))
            if not self.conn.poll(timeout_s):
                raise WorkerDied(f"worker call timed out after {timeout_s}s")
            echoed, reply = self.conn.recv()
            if echoed != req_id:
                raise WorkerDied(f"reply id {echoed!r} != request {req_id}")
        except WorkerDied:
            self.kill()
            raise
        except (EOFError, OSError, BrokenPipeError) as exc:
            self.kill()
            raise WorkerDied(f"worker pipe failed: {exc!r}") from exc
        kind = reply[0]
        if kind == "stale":
            raise _Stale(str(reply[1]))
        if kind == "budget":
            raise _OverBudget(str(reply[1]))
        if kind == "error":
            raise WorkerDied(f"worker error: {reply[1]}")
        return reply

    def kill(self) -> None:
        """Hard-stop the worker and reap it — safe to call mid-wave.

        SIGKILL rather than SIGTERM: a worker wedged under SIGSTOP (or
        spinning with signals blocked) ignores a terminate request, and
        a respawn must not race a half-dead predecessor. The join reaps
        the zombie so a respawned fleet never accumulates defunct
        processes, and the process exits without running cleanup — its
        segment mappings just vanish with the address space, which is
        exactly why the router (not the worker) owns unlinking.
        """
        self.alive = False
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)

    def stop(self, timeout_s: float = 2.0) -> None:
        if self.alive:
            try:
                self.conn.send((0, ("stop",)))
                self.conn.poll(timeout_s)
            except (OSError, BrokenPipeError):
                pass
        self.kill()


class ShardRouter:
    """Partition + publish + spawn, then route batches (see module doc)."""

    def __init__(
        self,
        graph: DynamicDiGraph,
        num_shards: int,
        *,
        num_workers: Optional[int] = None,
        call_timeout_s: float = 30.0,
        auto_respawn: bool = True,
        max_worker_respawns: int = 3,
        respawn_cooldown_s: float = 0.05,
    ) -> None:
        if num_shards < 2:
            raise ValueError("ShardRouter needs num_shards >= 2")
        if num_workers is not None and num_workers < 1:
            raise ValueError("ShardRouter needs num_workers >= 1")
        self.requested_shards = num_shards
        self.requested_workers = num_workers
        self.call_timeout_s = call_timeout_s
        self.auto_respawn = auto_respawn
        self.max_worker_respawns = max_worker_respawns
        self.respawn_cooldown_s = respawn_cooldown_s
        self.counters: Dict[str, int] = {}
        self._ctx = multiprocessing.get_context("spawn")
        self._plan: Optional[ShardPlan] = None
        self._segments: List[SegmentHandle] = []
        self._workers: List[ShardWorkerHandle] = []
        self._respawn_attempts: List[int] = []
        self._last_respawn_at = 0.0
        self._closed = False
        self._token = f"r{next(_ROUTER_TOKENS)}"
        # Serializes every path that touches worker pipes.
        self._route_lock = threading.Lock()
        self._deploy(graph)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._plan.version if self._plan is not None else -1

    @property
    def num_shards(self) -> int:
        return self._plan.num_shards if self._plan is not None else 0

    @property
    def healthy(self) -> bool:
        """All workers alive (a degraded router still routes what it can)."""
        return bool(self._workers) and all(w.alive for w in self._workers)

    def _incr(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def _publish(self, plan: ShardPlan) -> List[SegmentHandle]:
        handles = []
        for info, sub in zip(plan.shards, plan.subgraphs):
            csr = CSRSnapshot.freeze(sub)
            name = segment_name(info.index, plan.version, token=self._token)
            handles.append(publish_snapshot(csr, name))
        return handles

    def _fleet_spec(
        self, plan: ShardPlan, handles: List[SegmentHandle]
    ) -> Dict[str, object]:
        """The spec every worker attaches: all shards of one epoch."""
        return {
            "version": plan.version,
            "shards": [
                {
                    "name": handles[index].name,
                    "manifest": handles[index].manifest,
                    "boundary_out": plan.boundary_out.get(index, []),
                }
                for index in range(plan.num_shards)
            ],
        }

    def _worker_count(self, plan: ShardPlan) -> int:
        return (
            self.requested_workers
            if self.requested_workers is not None
            else plan.num_shards
        )

    def _deploy(self, graph: DynamicDiGraph) -> None:
        plan = partition_graph(graph, self.requested_shards)
        if not plan.shards:
            raise ValueError("cannot shard an empty graph")
        self._deploy_from(plan)

    def refresh(self, graph: DynamicDiGraph) -> None:
        """Re-anchor the fleet at the graph's current version.

        Swaps segments in place when the new partition keeps the shard
        count and every worker is alive; otherwise tears down and
        respawns. Either way the old version-stamped segments are
        unlinked once no worker needs them.
        """
        if self._closed:
            raise RuntimeError("router is closed")
        if self._plan is not None and self._plan.version == graph.version:
            return
        plan = partition_graph(graph, self.requested_shards)
        if not plan.shards:
            raise ValueError("cannot shard an empty graph")
        in_place = (
            self._plan is not None
            and self._worker_count(plan) == len(self._workers)
            and all(w.alive for w in self._workers)
        )
        if not in_place:
            self._teardown()
            self._deploy_from(plan)
            return
        handles = self._publish(plan)
        old_segments = self._segments
        spec = self._fleet_spec(plan, handles)
        try:
            for worker in self._workers:
                worker.call(("swap", spec), self.call_timeout_s)
        except (WorkerDied, _Stale, _OverBudget):
            # A failed swap leaves a mixed fleet: fall back to a full
            # respawn against the new plan.
            for handle in handles:
                handle.close()
            self._teardown()
            self._deploy_from(plan)
            for handle in old_segments:
                handle.close()
            return
        self._plan = plan
        self._segments = handles
        for handle in old_segments:
            handle.close()
        self._incr("swaps")

    def _spawn(self, spec: Dict[str, object], index: int) -> ShardWorkerHandle:
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child, spec),
            daemon=True,
            name=f"ifca-worker-{index}",
        )
        process.start()
        child.close()
        return ShardWorkerHandle(process, parent)

    def _deploy_from(self, plan: ShardPlan) -> None:
        handles = self._publish(plan)
        spec = self._fleet_spec(plan, handles)
        workers: List[ShardWorkerHandle] = []
        try:
            for index in range(self._worker_count(plan)):
                workers.append(self._spawn(spec, index))
            for worker in workers:
                worker.call(("ping",), self.call_timeout_s)
        except Exception:
            for worker in workers:
                worker.kill()
            for handle in handles:
                handle.close()
            raise
        self._plan, self._segments, self._workers = plan, handles, workers
        self._respawn_attempts = [0] * len(workers)
        self._incr("deploys")

    def respawn_dead(self, *, probe: bool = True) -> int:
        """Replace dead workers against the *current* plan (no repartition).

        The dead worker's segments are still published (workers never
        own unlinking), so the replacement process re-attaches the same
        version-stamped segment and picks up exactly where its
        predecessor stood. With ``probe`` (the default) each replacement
        must answer a ``("probe", version)`` — a read through the
        re-attached CSR mapping — before it rejoins the fleet, so
        :attr:`healthy` flips back only after a successful probe wave.
        Per-slot attempts are capped at ``max_worker_respawns`` per
        deployed plan (a shard that keeps dying is a poison shard; give
        it back to the single-process path rather than fork-bombing).
        Returns the number of workers respawned.
        """
        if self._closed or self._plan is None:
            return 0
        self._sweep_dead()
        respawned = 0
        spec = self._fleet_spec(self._plan, self._segments)
        for index, worker in enumerate(self._workers):
            if worker.alive:
                continue
            if self._respawn_attempts[index] >= self.max_worker_respawns:
                continue
            self._respawn_attempts[index] += 1
            replacement: Optional[ShardWorkerHandle] = None
            try:
                replacement = self._spawn(spec, index)
                if probe:
                    replacement.call(
                        ("probe", self._plan.version), self.call_timeout_s
                    )
            except Exception:
                if replacement is not None:
                    replacement.kill()
                self._incr("respawn_failures")
                continue
            self._workers[index] = replacement
            respawned += 1
            self._incr("worker_respawns")
        if respawned:
            self._last_respawn_at = time.monotonic()
        return respawned

    def warm_fleet(self) -> int:
        """Fault every (worker, shard) wave path once, off the timed path.

        A fresh worker pays one-time costs on its first wave over a
        segment — the shared CSR pages fault in and the bit-BFS kernels
        run their first-call setup — and that cost otherwise lands
        inside whichever serving batch happens to reach the cold worker
        first (tens of milliseconds on a fresh fleet, an order of
        magnitude over a warm wave). Deployments that care about
        first-batch latency (and the serving benchmark, whose contract
        is to time steady state) call this once after deploy: each
        alive worker runs one tiny wave per shard. Best-effort — a
        dead, stale, or over-budget worker just stops warming; serving
        correctness never depends on warmth. Returns the number of
        (worker, shard) paths warmed.
        """
        plan = self._plan
        if plan is None:
            return 0
        probes: List[Tuple[int, List[Tuple[int, int]]]] = []
        for shard, sub in enumerate(plan.subgraphs):
            verts: List[int] = []
            for v in sub.vertices():
                verts.append(v)
                if len(verts) == 2:
                    break
            if not verts:
                continue
            probes.append((shard, [(verts[0], verts[-1])]))
        warmed = 0
        with self._route_lock:
            for worker in self._workers:
                if not worker.alive:
                    continue
                for shard, pairs in probes:
                    try:
                        worker.call(
                            (
                                "wave",
                                plan.version,
                                shard,
                                pairs,
                                "forward",
                                self.call_timeout_s,
                                None,
                            ),
                            self.call_timeout_s,
                        )
                    except (WorkerDied, _Stale, _OverBudget):
                        break
                    warmed += 1
        return warmed

    def _sweep_dead(self) -> None:
        """Notice workers that died without a call failing on them.

        A worker SIGKILLed between batches (or one whose shard no batch
        happened to touch) would otherwise sit as a live-looking handle
        until the first routed pair hits its broken pipe. ``is_alive``
        is one non-blocking ``waitpid`` per worker — cheap enough to
        run before every respawn decision.
        """
        for worker in self._workers:
            if worker.alive and not worker.process.is_alive():
                worker.kill()
                self._incr("worker_failures")

    def _maybe_respawn(self) -> None:
        """The ``execute_batch`` self-heal hook (cooldown-gated)."""
        if not self.auto_respawn or not self._workers:
            return
        now = time.monotonic()
        if now - self._last_respawn_at < self.respawn_cooldown_s:
            return
        self._sweep_dead()
        if self.healthy:
            return
        self._last_respawn_at = now
        self.respawn_dead()

    def _teardown(self) -> None:
        for worker in self._workers:
            worker.stop()
        self._workers = []
        for handle in self._segments:
            handle.close()
        self._segments = []

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._teardown()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        pairs: Sequence[Pair],
        *,
        deadline: Optional[float] = None,
        edge_ceiling: Optional[int] = None,
        label_filter=None,
    ) -> Tuple[Dict[Pair, Verdict], List[Pair]]:
        """Route one batch; returns ``(resolved, unresolved)``.

        ``resolved`` maps each answered pair to ``(answer, how)`` with
        ``how`` one of ``"scc" | "class" | "class-neg" | "quotient" |
        "deg" | "label-pos" | "label-neg" | "wave" | "cross"``.
        ``unresolved`` pairs (worker death, budget, stale, endpoints
        unknown to the plan) are the caller's to answer locally.
        ``deadline`` is an absolute ``time.perf_counter()`` stamp
        forwarded to workers as a remaining-time budget. ``label_filter``
        (a DL/BL tier, see :mod:`repro.graph.labels`) screens every pair
        that survived the O(1) rule ladder in one vectorized call before
        any worker round trip is paid — for callers whose pairs have not
        met the labels yet; the serving engine's label rung runs before
        its shard rung, so it passes none.
        """
        if self._closed or self._plan is None:
            return {}, list(pairs)
        with self._route_lock:
            return self._execute_batch_locked(
                pairs, deadline, edge_ceiling, label_filter
            )

    def _execute_batch_locked(
        self,
        pairs: Sequence[Pair],
        deadline: Optional[float],
        edge_ceiling: Optional[int],
        label_filter,
    ) -> Tuple[Dict[Pair, Verdict], List[Pair]]:
        self._maybe_respawn()
        plan = self._plan
        resolved: Dict[Pair, Verdict] = {}
        unresolved: List[Pair] = []
        searchable: List[Tuple[Pair, Optional[int]]] = []
        rule_hits: Dict[str, int] = {}
        for pair in pairs:
            kind, info = classify_pair(plan, pair[0], pair[1])
            if kind == "resolved":
                resolved[pair] = info
                rule_hits[info[1]] = rule_hits.get(info[1], 0) + 1
            elif kind == "unknown":
                unresolved.append(pair)
            else:
                searchable.append((pair, info if kind == "intra" else None))

        if searchable and label_filter is not None:
            verdicts = label_filter([entry[0] for entry in searchable])
            if verdicts is not None:
                survivors: List[Tuple[Pair, Optional[int]]] = []
                for entry, verdict in zip(searchable, verdicts):
                    if verdict == 0:
                        survivors.append(entry)
                        continue
                    hit = _VERDICT_LABEL_POS if verdict > 0 else _VERDICT_LABEL_NEG
                    resolved[entry[0]] = hit
                    rule_hits[hit[1]] = rule_hits.get(hit[1], 0) + 1
                searchable = survivors

        self._incr("route_pairs", len(pairs))
        for how, n in rule_hits.items():
            self._incr(f"route_{how}", n)

        if searchable:
            # Every intra 64-lane chunk and every cross-group closure
            # step becomes a tagged job on one reactor; any job can run
            # on any worker (all segments attached), so a busy shard's
            # waves spill into idle workers and many group fixpoints
            # advance concurrently.
            intra: Dict[int, List[Pair]] = {}
            cross: List[Pair] = []
            for pair, shard in searchable:
                if shard is None:
                    cross.append(pair)
                else:
                    intra.setdefault(shard, []).append(pair)
            run = pipeline.PipelineRun(
                self, deadline=deadline, edge_ceiling=edge_ceiling
            )
            for shard, plist in intra.items():
                for start in range(0, len(plist), GROUP_LANES):
                    run.add_intra(shard, plist[start : start + GROUP_LANES])
            for start in range(0, len(cross), GROUP_LANES):
                run.add_group(cross[start : start + GROUP_LANES])
            run_resolved, run_unresolved = run.run()
            resolved.update(run_resolved)
            unresolved.extend(run_unresolved)
            self._incr("route_pipeline_batches")

        if unresolved:
            self._incr("route_unresolved", len(unresolved))
        return resolved, unresolved

    def _time_left(self, deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        return max(1e-3, deadline - time.perf_counter())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        plan_summary = self._plan.summary() if self._plan is not None else {}
        return {
            "requested_shards": self.requested_shards,
            "inflight_window": pipeline.INFLIGHT_WINDOW,
            "healthy": self.healthy,
            "num_workers": len(self._workers),
            "workers_alive": sum(1 for w in self._workers if w.alive),
            "respawn_attempts": list(self._respawn_attempts),
            "plan": plan_summary,
            "counters": dict(self.counters),
        }
