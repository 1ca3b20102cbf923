"""The concurrent reachability query-serving engine.

:class:`ReachabilityService` wraps one :class:`DynamicDiGraph` plus an
exact reachability method (IFCA by default) behind one ordered ladder
of rungs: cheap exact observations first, searches after.

The ladder: a point query is a batch of one
-------------------------------------------
:meth:`~ReachabilityService.query` (width 1) and
:meth:`~ReachabilityService.query_batch` (width N) run the same walk,
:meth:`ReachabilityService._walk`: ``pairs -> outcomes`` on the calling
thread, under one read-lock hold at one graph version. The service owns
no threads: in-process the caller's thread searches; on the wire it is
an event-loop executor thread, one wave at a time (:mod:`repro.net.server`).
Every pair tries the rungs in this order and stops at the first that
answers:

1. **index rungs** — one :func:`~repro.service.batcher.plan_batch`
   call: dedup, trivial verdicts, fast path, cache, then one vectorised
   DL/BL label filter over whatever is left. Same rungs, same order at
   every width; a walk at least ``COLUMNAR_MIN_PAIRS`` wide (measured:
   :mod:`repro.service.batcher`) runs them over endpoint arrays when
   the pruner has its array view of the walk's version — built by the
   pruner from the CSR snapshot a wave rung froze, current until the version or its sample holder moves on
   (:mod:`repro.service.fastpath`). Nothing a caller sets picks the body;
2. **deadline pre-check** — an expired deadline sends the survivors
   straight to the last rung (``detail="pre-engine:..."``);
3. **search rungs** (:attr:`ReachabilityService._SEARCH_RUNGS`), each
   ``survivors -> survivors``: *shard* (the fleet's O(1) partition rules
   and worker waves), *waves* (one frame-wide bit-parallel BiBFS, when
   the cost model picks it — the cutover, at every width), *engine* (the
   exact method behind the breaker, with the dict-substrate fallback
   twin), *degraded* (the bounded search — it answers everything left).

The degraded rung runs when a query's budget (deadline or edge ceiling)
expires — before the search starts *or cooperatively in the middle of
it* — seeded with the interrupted search's partial state when the engine
could export it soundly. If it completes inside its own budget (a meet,
or a frontier exhausted) the answer is still exact; only a budget
overrun returns the best guess flagged ``confident=False``.

The cache sits before the shard rung because a routed ``wave`` /
``cross`` pair would otherwise re-run its worker search on every
recurrence under skewed traffic; the fleet's rule verdicts re-derive in
O(1), so only searched verdicts earn a cache slot. A rung that raises is
counted (``stage_errors_<rung>``) and skipped. Pairs a rung leaves
behind — the cutover chose scalar, the freeze failed, the breaker is
open, the sweep failed, the budget ran out before their lanes were
decided, the fleet is stale or degraded — reach the next rung inline and
already filtered: nothing re-enters the ladder. A batch that reaches the
engine rung whole therefore searches its pairs one after another under
the walk's single read-lock hold.

Sharded serving (``shards=K``)
------------------------------
With ``shards >= 2`` the shard rung lazily deploys a
:class:`~repro.shard.router.ShardRouter`: the graph is partitioned
along its SCC condensation into K shared-memory CSR shards served by a
pool of spawned worker processes (every worker attaches every shard). Routing is strictly an accelerator: pairs the router
cannot answer (worker death, budget, stale epoch) stay on the ladder,
so a degraded fleet degrades throughput, never availability. The fleet
re-anchors to a new graph epoch after ``SHARD_REFRESH_THRESHOLD`` walks
arrive at the newer version (repartitioning is seconds-scale, so it is
amortized exactly like the CSR freeze threshold). An in-process
``query()`` routes like any other width-1 walk: it may deploy the fleet
and it waits for the route lock, as every wire client's query does.

Fault tolerance (the containment ladder)
----------------------------------------
Every stage is allowed to fail without failing the query:

* index-rung (fast path, labels, cache), shard-rung and freeze errors
  fall through to the next rung (counted as ``stage_errors_*``);
* engine errors feed the substrate :class:`~repro.service.faults.CircuitBreaker`
  and the query retries on the lazily built dict-substrate fallback twin
  (``via="engine-fallback"``); an open breaker routes queries straight to
  the fallback until its half-open probe — which runs *both* substrates
  and compares verdicts — re-closes it;
* a failing fallback degrades (``detail="engine-error"``), and a failing
  degraded search still returns an outcome (``via="error"``) — the
  pipeline never raises out of a query;
* update faults raise *before* any mutation, so callers see the error and
  the graph stays consistent; journal-append faults after the mutation
  sacrifice durability, never availability (counted ``journal_errors``).

Durability
----------
With a :class:`~repro.graph.journal.UpdateJournal` attached, every
effective update appends one version-stamped record inside the write
lock (journal order == version order). :meth:`recover` replays a journal
into a fresh service whose graph — version counter included — matches the
pre-crash state exactly.

Consistency model: every query observes one frozen snapshot. A walk holds
a shared read lock for the whole pipeline (callers on different threads
walk concurrently); updates take the write lock, mutate the graph,
repair the pruner, journal the mutation, and advance the cache barriers.
The version recorded in each :class:`QueryOutcome` identifies exactly
which snapshot answered it, which the stress tests exploit to replay a
BFS oracle per answered version.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from collections import deque

from repro.baselines.base import ReachabilityMethod
from repro.core.budget import Budget, BudgetExceeded, PartialSearchState
from repro.core.ifca import IFCAMethod
from repro.core.params import IFCAParams
from repro.graph import kernels
from repro.graph.bitsearch import csr_bit_bibfs
from repro.graph.digraph import DynamicDiGraph
from repro.graph.journal import JournalReplayError, UpdateJournal
from repro.graph.labels import LabelIndex
from repro.service.batcher import (
    COLUMNAR_MIN_PAIRS,
    BatchCostModel,
    IndexColumns,
    Pair,
    pack_waves,
    plan_batch,
)
from repro.service.cache import VersionedQueryCache
from repro.service.concurrency import RWLock
from repro.service.fastpath import FastPathPruner, UpdateEffect
from repro.service.faults import CircuitBreaker, FaultInjector, FaultPlan
from repro.service.stats import ServiceStats
from repro.shard import ShardRouter


@dataclass(frozen=True)
class QueryOutcome:
    """One served query: the answer plus full provenance."""

    source: int
    target: int
    answer: bool
    #: ``True`` for exact answers (fast path, cache, engine, or a degraded
    #: run that still *proved* its answer); ``False`` for the best-effort
    #: guess of a blown budget, a shed query, or a total pipeline failure.
    confident: bool
    #: Which stage produced the answer:
    #: ``"fastpath" | "labels" | "cache" | "shard" | "bitbatch" | "engine"
    #: | "engine-fallback" | "degraded" | "shed" | "error"``. ``"bitbatch"``
    #: marks answers from a bit-parallel sweep; ``"shed"`` a socket-layer
    #: admission-control rejection (:mod:`repro.net.server`).
    via: str
    #: Graph version of the snapshot the answer is exact for.
    version: int
    #: Stage detail (fast-path rule name, engine termination reason,
    #: ``retry-after-ms=N`` for shed queries, ...).
    detail: str = ""
    #: Structured retry hint for shed outcomes (milliseconds), derived by
    #: admission control from the live engine-stage mean latency. Always
    #: set on ``via="shed"`` outcomes — clients and the wire protocol
    #: read this field, not the ``detail`` string.
    retry_after_ms: Optional[int] = None


class _Walk:
    """One ladder walk's state, fixed under one read-lock hold."""

    __slots__ = ("version", "deadline", "outcomes", "why")

    def __init__(self, version: int, deadline: Optional[float]) -> None:
        self.version = version
        self.deadline = deadline
        self.outcomes: Dict[Pair, QueryOutcome] = {}
        #: Why the degraded rung is answering (its detail prefix).
        self.why = ""


#: Pairs one graph version must send to the engine rung before its CSR
#: snapshot is frozen (a wave rung freezes at once: the batch amortizes
#: its own freeze). Until then its searches run on the dict adjacency.
CSR_FREEZE_THRESHOLD = 2
#: Edge-access budget of the degraded bounded search.
DEGRADE_BUDGET = 2048
#: Walks that must reach the shard rung at a newer graph version before
#: the fleet repartitions there (repartitioning costs seconds, so epochs
#: are amortized like CSR freezes); until then such walks skip the rung.
SHARD_REFRESH_THRESHOLD = 8


class ReachabilityService:
    """A thread-safe serving front-end over one dynamic graph.

    The service starts no threads: every query is searched on the thread
    that called :meth:`query` / :meth:`query_batch`; concurrent callers
    share the read lock.

    Parameters
    ----------
    graph:
        The graph to serve; an empty one is created when omitted. All
        subsequent updates must go through the service.
    method_factory:
        Builds the exact engine from the graph (default ``IFCAMethod``).
    cache_capacity, num_supportive, seed:
        Tuning for the cache and fast-path stages.
    deadline_s:
        Default per-query deadline (``None`` = never degrade on time).
        Measured from the call and enforced *cooperatively*: the engine
        checkpoints its budget mid-search and hands partial state to the
        degraded search on expiry.
    engine_edge_budget:
        Per-query edge-access ceiling for the engine stage (``None`` =
        unbounded). Exceeding it degrades exactly like a blown deadline.
    journal:
        An :class:`~repro.graph.journal.UpdateJournal`, or a path to open
        one at (the service then owns and closes it). Every effective
        update is journaled inside the write lock.
    fault_plan:
        A :class:`~repro.service.faults.FaultPlan` or ready
        :class:`~repro.service.faults.FaultInjector` to arm. Installs a
        process-wide kernel fault hook for the plan's ``kernel`` stage
        (restored on :meth:`close`) — arm chaos on one service at a time.
    max_pending:
        Admission control for the network front end, which reads it from
        here: :mod:`repro.net.server` sheds a wire query
        (:meth:`shed_outcome`, ``via="shed"`` with a retry-after hint)
        while this many are queued or executing. 0 disables shedding;
        in-process callers are never shed — they own the thread.
    shards:
        Deploy a :class:`~repro.shard.router.ShardRouter` of this many
        shared-memory shard-worker processes as the ladder's first
        search rung. ``0``/``1`` keeps single-process serving; the
        router is built lazily by the first walk that reaches the rung
        and torn down by :meth:`close`.
        Worker failures are contained: unrouted pairs stay on the
        ladder.
    shard_call_timeout_s:
        Per-message worker round-trip timeout; a worker that exceeds it
        is declared dead and its pairs fall back locally.
    shard_respawn:
        Let the router self-heal dead workers: a replacement process
        re-attaches the still-published segments of the same plan (no
        repartition) on the next routed batch. Off, a degraded fleet
        stays degraded until the next epoch refresh.
    use_labels:
        Stand up the incremental DL/BL label tier
        (:class:`~repro.graph.labels.LabelIndex`) as the last index
        rung: one vectorized filter per walk over the pairs the fast
        path and the cache left.
    fallback_factory:
        Builds the engine-stage fallback method (default: a dict-substrate
        ``IFCAMethod`` with all kernels off — deliberately not sharing the
        primary's substrate).
    """

    def __init__(
        self,
        graph: Optional[DynamicDiGraph] = None,
        method_factory: Optional[
            Callable[[DynamicDiGraph], ReachabilityMethod]
        ] = None,
        *,
        cache_capacity: int = 4096,
        num_supportive: int = 4,
        seed: int = 0,
        deadline_s: Optional[float] = None,
        engine_edge_budget: Optional[int] = None,
        journal: Union[UpdateJournal, str, Path, None] = None,
        fault_plan: Union[FaultPlan, FaultInjector, None] = None,
        max_pending: int = 0,
        shards: int = 0,
        shard_call_timeout_s: float = 30.0,
        shard_respawn: bool = True,
        use_labels: bool = True,
        fallback_factory: Optional[
            Callable[[DynamicDiGraph], ReachabilityMethod]
        ] = None,
    ) -> None:
        self.graph = graph if graph is not None else DynamicDiGraph()
        self.method = (method_factory or IFCAMethod)(self.graph)
        if fallback_factory is None:
            # A custom primary gets a second instance of itself as the
            # fallback (it is the only method we know answers this graph);
            # the default primary gets the dict-substrate IFCA twin.
            if method_factory is not None:
                fallback_factory = method_factory
            else:
                fallback_factory = lambda g: IFCAMethod(  # noqa: E731
                    g, IFCAParams(use_kernels=False)
                )
        self._fallback_factory = fallback_factory
        self._fallback: Optional[ReachabilityMethod] = None
        self._fallback_lock = threading.Lock()
        self.deadline_s = deadline_s
        self.engine_edge_budget = engine_edge_budget
        self._lock = RWLock()
        self._pruner = FastPathPruner(
            self.graph,
            num_supportive=num_supportive,
            seed=seed,
            csr_provider=lambda: self.graph.csr(build=False),
        )
        self._cache = VersionedQueryCache(cache_capacity)
        self._stats = ServiceStats()
        self._closed = False
        self._csr_lock = threading.Lock()
        self._csr_demand = 0
        self._csr_demand_version = -1

        self._shards = max(0, int(shards))
        self._shard_call_timeout_s = shard_call_timeout_s
        self._shard_respawn = bool(shard_respawn)
        self._router: Optional["ShardRouter"] = None
        self._router_lock = threading.Lock()
        self._router_demand = 0
        self._router_demand_version = -1
        self._router_failures = 0

        # The DL/BL label tier: the last index rung, after the O'Reach
        # fast path and the cache. A failed build just leaves the tier
        # off (counted) — labels are an acceleration, never a dependency.
        self._labels: Optional[LabelIndex] = None
        self._labels_disabled = False
        self._label_failures = 0
        if use_labels:
            try:
                self._labels = LabelIndex(self._pruner.dag)
            except Exception:
                self._stats.incr("stage_errors_labels")

        self._breaker = CircuitBreaker()
        self._batch_cost = BatchCostModel()
        self.max_pending = max(0, max_pending)

        self._owns_journal = isinstance(journal, (str, Path))
        self._journal: Optional[UpdateJournal] = (
            UpdateJournal(journal, graph_version=self.graph.version)
            if self._owns_journal
            else journal
        )

        if isinstance(fault_plan, FaultPlan):
            fault_plan = fault_plan.injector()
        self._injector: Optional[FaultInjector] = fault_plan
        self._prev_kernel_hook = None
        self._kernel_hook_armed = False
        if self._injector is not None:
            self._prev_kernel_hook = kernels.set_fault_hook(
                self._injector.kernel_hook()
            )
            self._kernel_hook_armed = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def close(self) -> None:
        """Refuse new calls and release the fleet, hooks and journal."""
        self._closed = True
        with self._router_lock:
            if self._router is not None:
                self._router.close()
                self._router = None
        if self._kernel_hook_armed:
            kernels.set_fault_hook(self._prev_kernel_hook)
            self._kernel_hook_armed = False
        if self._journal is not None and self._owns_journal:
            self._journal.close()

    def __enter__(self) -> "ReachabilityService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        journal_path: Union[str, Path],
        base_graph: Optional[DynamicDiGraph] = None,
        **kwargs,
    ) -> "ReachabilityService":
        """Rebuild a service from its write-ahead journal.

        Replays the journal (on ``base_graph`` or the checkpoint it
        names), realigns the version counter, and opens a service that
        resumes appending to the same journal. All remaining keyword
        arguments are forwarded to the constructor.
        """
        from repro.graph.journal import replay

        result = replay(journal_path, base_graph)
        service = cls(graph=result.graph, journal=journal_path, **kwargs)
        service._stats.incr("journal_recovered_records", result.applied)
        if result.torn_tail:
            service._stats.incr("journal_torn_tail")
        return service

    # ------------------------------------------------------------------
    # Fault plumbing
    # ------------------------------------------------------------------
    def _fire(self, stage: str) -> None:
        if self._injector is not None:
            self._injector.fire(stage)

    # ------------------------------------------------------------------
    # Updates (exclusive)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> UpdateEffect:
        """Route an edge insertion through the service."""
        return self._update(u, v, insert=True)

    def remove_edge(self, u: int, v: int) -> UpdateEffect:
        """Route an edge deletion through the service."""
        return self._update(u, v, insert=False)

    def _update(
        self, u: int, v: int, insert: bool, stamped: Optional[int] = None
    ) -> Optional[UpdateEffect]:
        """Apply one mutation under the write lock.

        ``stamped`` is a shipped journal record's version (the
        replication write path): records at or below the watermark are
        skipped (``None``) and the landed version must equal the stamp.
        """
        self._check_open()
        start = time.perf_counter()
        with self._lock.write:
            locked = time.perf_counter()
            if stamped is not None and stamped <= self.graph.version:
                self._stats.incr("replica_stale_records")
                return None
            # Fire *before* any mutation: an injected (or real) update
            # fault propagates to the caller with the graph, pruner, and
            # journal all untouched — failed updates are atomic.
            self._fire("update")
            if insert:
                effect = self._pruner.apply_insert(u, v)
            else:
                effect = self._pruner.apply_delete(u, v)
            if stamped is not None:
                if not effect.changed or effect.version != stamped:
                    raise JournalReplayError(
                        f"replicated record {'+' if insert else '-'}{(u, v)} "
                        f"stamped {stamped} landed at version {effect.version} "
                        f"(changed={effect.changed}) — replica has diverged "
                        "from the primary's base state"
                    )
                self._stats.incr("replica_applied_records")
            if effect.changed:
                self._journal_record(insert, u, v, effect.version)
            self._note_update(effect, "inserts" if insert else "deletes")
            self._labels_note(effect, u, v, insert)
        # ``update_wait`` is the share of ``update`` spent queueing for the
        # write lock behind reader walks (and other writers).
        self._stats.observe_latency("update_wait", locked - start)
        self._stats.observe_latency("update", time.perf_counter() - start)
        return effect

    def _labels_note(
        self, effect: UpdateEffect, u: int, v: int, insert: bool
    ) -> None:
        """Forward one applied mutation to the label tier (write lock held).

        A note hook that fails mid-propagation leaves labels in an
        unknown state, so containment is quarantine: every row dirty and
        the missing flag up — both rule directions abstain until the
        lazy rebuild replaces the state wholesale.
        """
        if self._labels is None or not effect.changed:
            return
        try:
            if insert:
                self._labels.note_insert(u, v)
            else:
                self._labels.note_delete(
                    u, v,
                    removes_reachability=effect.removes_reachability,
                )
        except Exception:
            self._labels_quarantine()

    def _labels_quarantine(self) -> None:
        self._stats.incr("stage_errors_labels")
        try:
            self._labels.invalidate()
        except Exception:
            self._labels_disabled = True

    def apply_journal_record(self, record: Dict) -> Optional[UpdateEffect]:
        """Apply one shipped journal record — the replication write path.

        A replica following a primary's journal stream applies records
        here instead of :meth:`add_edge` / :meth:`remove_edge`: the same
        pruner repair, cache invalidation, and local journaling run, but
        the resulting version is *verified* against the record's stamp —
        version arithmetic is deterministic, so a mismatch means the
        replica's graph has diverged from the primary's base state and
        the apply raises :class:`~repro.graph.journal.JournalReplayError`
        rather than advancing a silently wrong watermark.

        Records at or below the current watermark are skipped (``None``:
        the reconnect/resume overlap), so the apply is idempotent.
        """
        op = record.get("op")
        if op not in ("+", "-"):
            raise ValueError(f"not a mutation record: op={op!r}")
        return self._update(
            int(record["u"]), int(record["v"]), op == "+",
            stamped=int(record["ver"]),
        )

    @property
    def watermark(self) -> int:
        """The graph version all reads on this service are exact for.

        On a primary this is just the version counter; on a replica it is
        the last verified journal record applied — the replication
        freshness watermark every :class:`QueryOutcome` already stamps.
        """
        return self.graph.version

    def graph_snapshot(self) -> Tuple[List[Tuple[int, int]], List[int], int]:
        """``(edges, isolated_vertices, version)`` under the read lock.

        One coherent full-graph snapshot for bootstrapping a replica that
        cannot be served from the journal (its resume point was compacted
        away). Isolated vertices ride along so the rebuilt graph matches
        edge-for-edge *and* vertex-for-vertex.
        """
        with self._lock.read:
            edges = list(self.graph.edges())
            covered = {u for u, _ in edges} | {v for _, v in edges}
            isolated = [v for v in self.graph.vertices() if v not in covered]
            return edges, isolated, self.graph.version

    def _journal_record(self, insert: bool, u: int, v: int, version: int) -> None:
        """Append one applied mutation to the journal (if any).

        A journal failure after the in-memory mutation cannot be rolled
        back, so it is contained: availability wins, the lost record is
        counted, and recovery from this journal will be missing it —
        which the ``journal_errors`` counter makes auditable.
        """
        if self._journal is None:
            return
        start = time.perf_counter()
        try:
            self._fire("journal")
            if insert:
                self._journal.record_insert(u, v, version)
            else:
                self._journal.record_delete(u, v, version)
        except Exception:
            self._stats.incr("journal_errors")
        self._stats.observe_latency("journal", time.perf_counter() - start)

    def _note_update(self, effect: UpdateEffect, kind: str) -> None:
        self._stats.incr(f"updates_{kind}")
        if not effect.changed:
            return
        if effect.adds_reachability or effect.removes_reachability:
            self._cache.note_update(
                effect.version,
                adds_reachability=effect.adds_reachability,
                removes_reachability=effect.removes_reachability,
            )
            self._stats.incr("cache_invalidations")
        else:
            self._stats.incr("neutral_updates")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _deadline(self, deadline_s: Optional[float]) -> Optional[float]:
        """A relative deadline as an absolute ``perf_counter`` stamp."""
        deadline_s = self.deadline_s if deadline_s is None else deadline_s
        return time.perf_counter() + deadline_s if deadline_s is not None else None

    def query(
        self, source: int, target: int, deadline_s: Optional[float] = None
    ) -> QueryOutcome:
        """Serve one query on the calling thread: a batch of one."""
        self._check_open()
        return self._walk([(source, target)], self._deadline(deadline_s))[0]

    def query_batch(
        self,
        queries: Sequence[Tuple[int, int]],
        deadline_s: Optional[float] = None,
    ) -> List[QueryOutcome]:
        """Serve a batch of pairs on the calling thread, in one walk.

        Repeated pairs are answered once and fanned back out. Pairs no
        index rung answers are searched by whichever rung the walk
        itself picks: :class:`~repro.service.batcher.BatchCostModel`
        compares one bit-parallel sweep's predicted cost against the
        survivors' expected engine-rung cost (from live engine-stage
        latency) and keeps or skips the wave rung — 64 queries per
        uint64 word over the version's CSR snapshot
        (:mod:`repro.graph.bitsearch`). With no snapshot (a failed
        freeze, counted ``batch_scalar_fallback``) or the breaker open
        the wave rung abstains; a kernel failure feeds the breaker. Either way
        the survivors, and the lanes a budget expiry left undecided,
        drop to the engine rung inline.
        """
        self._check_open()
        return self._walk([(s, t) for s, t in queries], self._deadline(deadline_s))

    def retry_after_hint_ms(self, backlog: int) -> int:
        """The live retry-after hint (ms) admission control attaches to
        shed outcomes: ``backlog`` queries drained one wave at a time at
        the observed engine-stage mean latency."""
        mean = self._stats.stage_mean_seconds("engine") or 1e-3
        return max(1, int(1000.0 * max(1, backlog) * mean))

    def shed_outcome(self, source: int, target: int, backlog: int) -> QueryOutcome:
        """One admission-control rejection, hint attached.

        The network front end's socket-layer backpressure
        (:mod:`repro.net`) builds its outcome here, so the retry-after
        hint is carried structurally (:attr:`QueryOutcome.retry_after_ms`)
        on every rejection, never only in the detail string.
        """
        self._stats.incr("shed")
        retry_ms = self.retry_after_hint_ms(backlog)
        return QueryOutcome(
            source,
            target,
            False,
            False,
            "shed",
            self.graph.version,  # advisory; read without the lock
            f"retry-after-ms={retry_ms}",
            retry_after_ms=retry_ms,
        )

    # ------------------------------------------------------------------
    # The ladder (see the module docstring): one walk at every width
    # ------------------------------------------------------------------
    def _walk(
        self, pairs: List[Pair], deadline: Optional[float]
    ) -> List[QueryOutcome]:
        """Walk ``pairs`` down the ladder; outcomes align with ``pairs``.

        The one place queries take the read lock: index rungs, deadline
        pre-check and search rungs all see one graph version. A search
        rung that raises is counted and its survivors fall through.
        """
        with self._lock.read:
            walk = _Walk(self.graph.version, deadline)
            survivors = self._index_rungs(walk, pairs)
            rungs = self._SEARCH_RUNGS
            if (
                survivors
                and deadline is not None
                and time.perf_counter() > deadline
            ):
                walk.why = "pre-engine"
                rungs = rungs[-1:]
            for stage, rung in rungs:
                if not survivors:
                    break
                try:
                    survivors = rung(self, walk, survivors)
                except Exception:
                    self._stats.incr(f"stage_errors_{stage}")
        outcomes = walk.outcomes
        self._stats.incr("queries", len(outcomes))
        return [outcomes[pair] for pair in pairs]

    def _index_rung(self, stage: str, probe: Callable) -> Optional[Callable]:
        """``probe`` as an index rung of one walk: ``None`` (counted) when
        ``stage``'s fault point raises — the rung sits the walk out — else
        ``probe`` with its errors counted: a probe that raises abstains."""
        try:
            self._fire(stage)
        except Exception:
            self._stats.incr(f"stage_errors_{stage}")
            return None

        def contained(*args):
            try:
                return probe(*args)
            except Exception:
                self._stats.incr(f"stage_errors_{stage}")
                return None

        return contained

    def _index_rungs(self, walk: _Walk, pairs: List[Pair]) -> List[Pair]:
        """The rungs that answer without a search: one ``plan_batch`` call
        (dedup, trivial verdicts, fast path, cache, one label filter).

        Fault points and the latency sample are per walk, not per pair:
        per-pair timers would cost as much as the probes themselves, so
        the whole pass records one sample under ``fastpath`` (which
        dominates it). A walk at least ``COLUMNAR_MIN_PAIRS`` wide takes
        the rungs in array form when the pruner has its view of this
        version (:meth:`FastPathPruner.view`); there a probe that raises
        abstains on the whole walk, not on one pair.
        """
        stats, pruner, cache = self._stats, self._pruner, self._cache
        view = None
        if len(pairs) >= COLUMNAR_MIN_PAIRS:
            try:
                view = pruner.view()
            except Exception:
                stats.incr("stage_errors_fastpath")
        label_filter = self._label_filter_fn(many=view is not None)
        if label_filter is not None:
            try:
                self._labels.observe_query()
            except Exception:
                stats.incr("stage_errors_labels")
        if view is None:
            def check(source, target):
                pruner.observe_query()
                return pruner.check(source, target)

            rungs = dict(
                check=self._index_rung("fastpath", check),
                cache_get=self._index_rung("cache", cache.get),
                label_filter=label_filter,
            )
        else:
            def check_many(source, target):
                pruner.observe_query(len(source))
                return pruner.check_many(source, target)

            rungs = dict(columns=IndexColumns(
                view.csr,
                self._index_rung("fastpath", check_many),
                self._index_rung("cache", cache.get_many),
                label_filter,
            ))
        start = time.perf_counter()
        # pack=False: the wave rung packs what reaches it.
        plan = plan_batch(pairs, graph=self.graph, pack=False, **rungs)
        stats.observe_latency("fastpath", time.perf_counter() - start)
        for name, count in (
            ("batched_dedup", plan.dedup_saved),
            ("batch_prefilter_hits", plan.prefilter_hits),
            ("label_hits_pos", plan.label_pos),
            ("label_hits_neg", plan.label_neg),
            ("cache_misses", len(plan.pending)),
        ):
            if count:
                stats.incr(name, count)
        version, outcomes = walk.version, walk.outcomes
        for pair, (answer, via, detail) in plan.resolved.items():
            if via == "fastpath":
                stats.fastpath_hit(detail)
            elif via == "cache":
                stats.incr("cache_hits")
            outcomes[pair] = QueryOutcome(
                pair[0], pair[1], answer, True, via, version, detail
            )
        return plan.pending

    def _label_filter_fn(self, many: bool = False):
        """The batch-facing label surface: a callable mapping a pair list
        (``many``: aligned endpoint arrays) to aligned int8 verdicts
        (``1``/``-1``/``0``), or ``None`` when the tier is off. Errors
        (injected or real) are contained inside the callable — the
        caller sees an abstaining filter, never an exception."""
        labels = self._labels
        if labels is None or self._labels_disabled:
            return None

        def pairwise(pairs):
            if len(pairs) > 1:
                return labels.filter_pairs(pairs)
            # The vectorised gather has a ~50 us numpy floor; one pair
            # takes the same rules as scalars.
            verdict = labels.check(*pairs[0])
            return (0 if verdict is None else 1 if verdict else -1,)

        probe = labels.query_many if many else pairwise

        def label_filter(*columns):
            try:
                self._fire("labels")
                verdicts = probe(*columns)
            except Exception:
                self._stats.incr("stage_errors_labels")
                self._note_label_failure()
                return None
            self._label_failures = 0
            return verdicts

        return label_filter

    def _note_label_failure(self) -> None:
        """Contain a label-stage error; repeated *consecutive* failures
        disable the tier for the service's lifetime (mirroring the shard
        router's deploy-failure policy) — the ladder below answers
        everything regardless."""
        self._label_failures += 1
        if self._label_failures >= 16:
            self._labels_disabled = True

    # ------------------------------------------------------------------
    # Search rungs: ``rung(walk, survivors) -> survivors``
    # ------------------------------------------------------------------
    def _rung_shard(self, walk: _Walk, survivors: List[Pair]) -> List[Pair]:
        """Route survivors through the shard fleet's rules and waves.

        Skipped when sharding is off or the fleet is anchored at another
        epoch. Pairs the router could not answer stay survivors, so a
        degraded fleet costs throughput, never availability or exactness.
        """
        router = self._shard_router(walk.version) if self._shards >= 2 else None
        if router is None:
            return survivors
        self._stats.incr("shard_batches")
        start = time.perf_counter()
        resolved, unresolved = router.execute_batch(
            survivors,
            deadline=walk.deadline,
            edge_ceiling=self.engine_edge_budget,
        )
        self._stats.observe_latency("shard", time.perf_counter() - start)
        if unresolved:
            self._stats.incr("shard_unresolved", len(unresolved))
        if not resolved:
            return survivors
        self._stats.incr("shard_resolved", len(resolved))
        version, outcomes = walk.version, walk.outcomes
        searched = []
        for pair, (answer, how) in resolved.items():
            outcomes[pair] = QueryOutcome(
                pair[0], pair[1], answer, True, "shard", version, how
            )
            if how == "wave" or how == "cross":
                searched.append((pair, answer))
        # Only search verdicts earn a cache slot: a rule verdict
        # re-derives in O(1) on the next route, so caching it would just
        # evict entries that saved real work.
        if searched:
            self._cache.put_many(searched, version, confident=True)
        return [pair for pair in survivors if pair not in resolved]

    def _shard_router(self, version: int) -> Optional["ShardRouter"]:
        """The fleet anchored at ``version``, deploying/refreshing lazily.

        The first routed batch pays the initial deploy; after updates the
        fleet stays at its old epoch (batches skip it) until
        ``SHARD_REFRESH_THRESHOLD`` batches have arrived at the newer
        version, then one refresh re-anchors it. Two consecutive
        deploy/refresh failures disable sharding for the service's
        lifetime — the single-process path serves everything.
        """
        if self._router_failures >= 2:
            return None
        with self._router_lock:
            router = self._router
            if router is not None and router.version == version:
                return router
            if self._router_demand_version != version:
                self._router_demand_version = version
                self._router_demand = 0
            self._router_demand += 1
            if (
                router is not None
                and self._router_demand < SHARD_REFRESH_THRESHOLD
            ):
                return None
            start = time.perf_counter()
            try:
                if router is None:
                    self._router = ShardRouter(
                        self.graph,
                        self._shards,
                        call_timeout_s=self._shard_call_timeout_s,
                        auto_respawn=self._shard_respawn,
                    )
                else:
                    router.refresh(self.graph)
            except Exception:
                self._stats.incr("stage_errors_shard")
                self._router_failures += 1
                if self._router_failures >= 2 and self._router is not None:
                    self._router.close()
                    self._router = None
                return None
            self._stats.observe_latency("shard_deploy", time.perf_counter() - start)
            self._stats.incr("shard_deploys")
            self._router_failures = 0
            return self._router

    def _rung_waves(self, walk: _Walk, survivors: List[Pair]) -> List[Pair]:
        """Sweep the survivors in one bit-parallel BiBFS kernel call.

        The rung decides for itself, at every width, from what it can
        observe: the breaker, the cost model's cutover on the survivor
        count, graph size and live engine mean, and whether the version
        has (or can freeze) a snapshot. Pairs the kernel does not answer
        — any of those said no, the call failed (breaker-counted), or
        the budget expired before their lanes were decided — stay
        survivors; the engine rung's degraded hand-off owns
        partial-answer semantics.
        """
        stats = self._stats
        if self._breaker.state != "closed":
            return survivors
        use_bits = self._batch_cost.prefer_bitparallel(
            len(survivors),
            self.graph.num_vertices,
            self.graph.num_edges,
            stats.stage_mean_seconds("engine"),
        )
        stats.incr("batch_auto_bitparallel" if use_bits else "batch_auto_scalar")
        if not use_bits:
            return survivors
        csr = self._freeze(walk.version, len(survivors), at_once=True)
        if csr is None:
            stats.incr("batch_scalar_fallback")
            return survivors
        pairs, (wave,) = pack_waves(
            survivors, graph=self.graph, max_wave_lanes=len(survivors), csr=csr
        )
        budget = self._make_budget(walk.deadline)
        start = time.perf_counter()
        try:
            self._fire("engine")
            answers, sweep = csr_bit_bibfs(
                csr, wave.ids, budget=budget, lead=wave.lead
            )
        except BudgetExceeded as exc:
            # Lanes decided before the budget ran out are final verdicts.
            answers = exc.decided or [None] * len(pairs)
            detail = f"lanes={len(pairs)} interrupted={exc.reason}"
        except Exception:
            stats.incr("engine_failures")
            stats.incr("batch_wave_failures")
            self._breaker.record_failure()
            return survivors
        else:
            stats.observe_latency("batch", time.perf_counter() - start)
            self._breaker.record_success()
            stats.incr("bit_waves", sweep.sweeps)
            stats.incr("bit_words", sweep.words)
            stats.incr("bit_lanes", sweep.lanes)
            stats.incr("bit_layers", sweep.layers)
            detail = f"lanes={sweep.lanes} layers={sweep.layers}"
        resolved = [
            (pair, answer)
            for pair, answer in zip(pairs, answers)
            if answer is not None
        ]
        stats.incr("bit_resolved", len(resolved))
        self._cache.put_many(resolved, walk.version, confident=True)
        for pair, answer in resolved:
            walk.outcomes[pair] = QueryOutcome(
                pair[0], pair[1], answer, True, "bitbatch", walk.version, detail
            )
        return [pair for pair, answer in zip(pairs, answers) if answer is None]

    def _rung_engine(self, walk: _Walk, survivors: List[Pair]) -> List[Pair]:
        """One exact search per survivor, inline: breaker, fallback twin,
        and the degraded hand-off of an interrupted search's partial
        state all live in :meth:`_engine_stage` and below."""
        self._stats.incr("batch_scalar_queries", len(survivors))
        self._freeze(walk.version, len(survivors))
        version = walk.version
        for pair in survivors:
            source, target = pair
            budget = self._make_budget(walk.deadline)
            try:
                outcome = self._engine_stage(source, target, version, budget)
            except BudgetExceeded as exc:
                self._stats.incr("budget_degraded")
                outcome = self._degraded(
                    source, target, version, exc.partial, exc.reason
                )
            walk.outcomes[pair] = outcome
        return []

    def _rung_degraded(self, walk: _Walk, survivors: List[Pair]) -> List[Pair]:
        """The last rung answers everything left (it never raises)."""
        for pair in survivors:
            walk.outcomes[pair] = self._degraded(
                pair[0], pair[1], walk.version, None, walk.why
            )
        return []

    #: The search rungs, in the order every surviving pair tries them.
    _SEARCH_RUNGS = (
        ("shard", _rung_shard),
        ("waves", _rung_waves),
        ("engine", _rung_engine),
        ("degraded", _rung_degraded),
    )

    def _freeze(self, version: int, demand: int, at_once: bool = False):
        """The version's shared CSR snapshot, frozen on demand, or ``None``.

        Runs under the read lock, so the graph cannot move while
        freezing; the dedicated mutex keeps concurrent readers from
        freezing the same version twice. ``demand`` pairs join the
        version's search-rung demand: below ``CSR_FREEZE_THRESHOLD`` the
        epoch stays on the dict path, so a version that never attracts
        enough searches never pays a freeze. ``at_once`` skips the
        threshold — a wave rung amortizes its own freeze. A failed freeze
        (counted) also returns ``None``.
        """
        try:
            csr = self.graph.csr(build=False)
            if csr is not None:
                return csr
            with self._csr_lock:
                csr = self.graph.csr(build=False)
                if csr is not None:
                    return csr
                if self._csr_demand_version != version:
                    self._csr_demand_version = version
                    self._csr_demand = 0
                self._csr_demand += demand
                if not at_once and self._csr_demand < CSR_FREEZE_THRESHOLD:
                    return None
                start = time.perf_counter()
                self._fire("freeze")
                csr = self.graph.csr(build=True)
                self._stats.observe_latency("freeze", time.perf_counter() - start)
                self._stats.incr("csr_freezes")
                return csr
        except Exception:
            self._stats.incr("stage_errors_freeze")
            return None

    # ------------------------------------------------------------------
    # Engine stage: budget + circuit breaker + fallback
    # ------------------------------------------------------------------
    def _engine_stage(
        self, source: int, target: int, version: int, budget: Optional[Budget]
    ) -> QueryOutcome:
        allowed, probing = self._breaker.acquire()

        if allowed:
            start = time.perf_counter()
            try:
                self._fire("engine")
                answer, detail = self._run_engine(
                    self.method, source, target, budget
                )
            except BudgetExceeded:
                # A budget interrupt is not a substrate failure. A
                # half-open probe interrupted this way is inconclusive:
                # return the breaker to OPEN (no trip counted) and let a
                # later probe decide.
                if probing:
                    self._breaker.record_failure()
                raise
            except Exception:
                self._stats.incr("engine_failures")
                self._breaker.record_failure()
            else:
                self._stats.observe_latency("engine", time.perf_counter() - start)
                self._stats.incr("engine_calls")
                if probing:
                    verdict_ok = self._verdict_probe(
                        source, target, answer, budget
                    )
                    if not verdict_ok:
                        # The primary substrate answers but answers
                        # *wrongly*; trust the dict twin instead.
                        return self._fallback_outcome(
                            source, target, budget, version
                        )
                else:
                    self._breaker.record_success()
                self._cache.put(source, target, answer, version, confident=True)
                return QueryOutcome(
                    source, target, answer, True, "engine", version, detail
                )

        return self._fallback_outcome(source, target, budget, version)

    def _verdict_probe(
        self, source: int, target: int, answer: bool, budget: Optional[Budget]
    ) -> bool:
        """Half-open probe: re-answer on the dict twin and compare.

        A matching verdict re-closes the breaker; a mismatch (the
        verdict-contract violation) re-opens it. A probe the budget
        interrupts is inconclusive and re-opens without a verdict.
        """
        try:
            expected, _ = self._run_engine(
                self._fallback_method(), source, target, budget
            )
        except BudgetExceeded:
            self._breaker.record_failure()
            raise
        except Exception:
            self._stats.incr("engine_failures")
            self._breaker.record_failure()
            return True  # fallback itself failed; keep the primary answer
        if expected != answer:
            self._stats.incr("verdict_mismatches")
            self._breaker.record_failure()
            return False
        self._breaker.record_success()
        return True

    def _fallback_outcome(
        self,
        source: int,
        target: int,
        budget: Optional[Budget],
        version: int,
    ) -> QueryOutcome:
        """Answer on the dict-substrate twin (breaker open or primary
        failed)."""
        start = time.perf_counter()
        try:
            self._fire("engine")
            answer, detail = self._run_engine(
                self._fallback_method(), source, target, budget
            )
        except BudgetExceeded:
            raise
        except Exception:
            self._stats.incr("engine_failures")
            # Both substrates failed: last resort is the degraded search.
            return self._degraded(source, target, version, None, "engine-error")
        self._stats.observe_latency("engine", time.perf_counter() - start)
        self._stats.incr("engine_calls")
        self._stats.incr("engine_fallbacks")
        self._cache.put(source, target, answer, version, confident=True)
        return QueryOutcome(
            source, target, answer, True, "engine-fallback", version, detail
        )

    def _fallback_method(self) -> ReachabilityMethod:
        if self._fallback is None:
            with self._fallback_lock:
                if self._fallback is None:
                    self._fallback = self._fallback_factory(self.graph)
        return self._fallback

    def _make_budget(self, deadline: Optional[float]) -> Optional[Budget]:
        # A walk with no limit searches with no budget: nothing checkpoints.
        if deadline is None and self.engine_edge_budget is None:
            return None
        return Budget(deadline=deadline, edge_ceiling=self.engine_edge_budget)

    def _run_engine(
        self,
        method: ReachabilityMethod,
        source: int,
        target: int,
        budget: Optional[Budget],
    ) -> Tuple[bool, str]:
        engine = getattr(method, "engine", None)
        if engine is not None and hasattr(engine, "query_with_stats"):
            if budget is not None and getattr(engine, "supports_budget", False):
                answer, qstats = engine.query_with_stats(
                    source, target, budget=budget
                )
            else:
                answer, qstats = engine.query_with_stats(source, target)
            if qstats.used_push_kernel:
                self._stats.incr("push_kernel_queries")
            return answer, qstats.terminated_by
        return method.query(source, target), ""

    # ------------------------------------------------------------------
    # Degraded stage
    # ------------------------------------------------------------------
    def _degraded(
        self,
        source: int,
        target: int,
        version: int,
        partial: Optional[PartialSearchState] = None,
        why: str = "",
    ) -> QueryOutcome:
        """Budget blown (or both engine substrates down): answer cheaply.

        A frontier-balanced bidirectional BFS runs with a hard edge-access
        budget, seeded with the interrupted engine search's partial state
        when one was exported — the work already spent is kept, not
        redone. A meet proves ``True`` and an exhausted frontier proves
        ``False`` (both still confident); hitting the budget returns the
        best-effort ``False`` flagged ``confident=False``. The answer is
        cached only when it is exact, and even a failing degraded search
        returns an outcome (``via="error"``) rather than raising.
        """
        start = time.perf_counter()
        self._stats.incr("degraded")
        try:
            self._fire("degraded")
            answer, confident, detail = _bounded_bibfs(
                self.graph, source, target, DEGRADE_BUDGET, partial
            )
        except Exception:
            self._stats.incr("stage_errors_degraded")
            self._stats.observe_latency("degraded", time.perf_counter() - start)
            return QueryOutcome(
                source, target, False, False, "error", version,
                f"degraded-failed:{why}" if why else "degraded-failed",
            )
        if confident:
            self._cache.put(source, target, answer, version, confident=True)
        if partial is not None:
            self._stats.incr("degraded_resumed")
            detail = f"resumed:{detail}"
        if why:
            detail = f"{why}:{detail}"
        self._stats.observe_latency("degraded", time.perf_counter() - start)
        return QueryOutcome(
            source, target, answer, confident, "degraded", version, detail
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """A coherent snapshot of counters, rates, and stage latencies."""
        snapshot = self._stats.snapshot()
        counters: Dict[str, int] = snapshot["counters"]  # type: ignore[assignment]
        cache = self._cache
        counters["cache_size"] = len(cache)
        counters["cache_stale_evictions"] = cache.stale_evictions
        counters["cache_unconfident_rejections"] = cache.unconfident_rejections
        counters["sample_rebuilds"] = self._pruner.sample_rebuilds
        counters["kernel_sample_rebuilds"] = self._pruner.kernel_rebuilds
        counters["pruner_view_builds"] = self._pruner.view_builds
        dag = self._pruner.dag
        counters["dag_merges"] = dag.merge_count
        counters["dag_splits"] = dag.split_count
        counters["dag_reconnects"] = dag.reconnect_count
        counters["dag_probe_visited"] = dag.probe_visited
        counters["breaker_trips"] = self._breaker.trips
        counters["breaker_probes"] = self._breaker.probes
        snapshot["breaker_state"] = self._breaker.state
        if self._labels is not None:
            label_summary = self._labels.summary()
            counters["label_updates"] = label_summary["updates"]
            counters["label_rebuilds"] = label_summary["full_rebuilds"]
            counters["label_partial_rebuilds"] = label_summary["partial_rebuilds"]
            counters["label_staleness"] = label_summary["stale_rows"]
            snapshot["labels"] = label_summary
        if self._injector is not None:
            snapshot["faults_fired"] = self._injector.fired
        if self._journal is not None:
            snapshot["journal"] = {
                "records_written": self._journal.records_written,
                "sync_count": self._journal.sync_count,
            }
        snapshot["graph"] = {
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "version": self.graph.version,
            "csr_cached": self.graph.csr(build=False) is not None,
        }
        with self._router_lock:
            if self._router is not None:
                snapshot["shards"] = self._router.stats()
        return snapshot

    @property
    def pruner(self) -> FastPathPruner:
        return self._pruner

    @property
    def labels(self) -> Optional[LabelIndex]:
        """The DL/BL label tier (``None`` when off or its build failed)."""
        return self._labels

    @property
    def cache(self) -> VersionedQueryCache:
        return self._cache

    @property
    def journal(self) -> Optional[UpdateJournal]:
        return self._journal

    @property
    def injector(self) -> Optional[FaultInjector]:
        return self._injector

    @property
    def router(self) -> Optional["ShardRouter"]:
        """The deployed shard router, if any (``None`` until the first
        routed batch builds it, and always ``None`` with ``shards<=1``)."""
        return self._router


def _bounded_bibfs(
    graph: DynamicDiGraph,
    source: int,
    target: int,
    budget: int,
    partial: Optional[PartialSearchState] = None,
) -> Tuple[bool, bool, str]:
    """Bidirectional BFS that stops after ``budget`` edge accesses.

    Returns ``(answer, exact, detail)``. Expands the smaller frontier
    first (the engine's own BiBFS discipline), so short positive paths and
    small reachable sets resolve exactly within tiny budgets.

    ``partial`` seeds the search with an interrupted engine search's
    visited sets and frontiers (see
    :class:`~repro.core.budget.PartialSearchState` for the soundness
    invariant): an empty seeded frontier is already a proof of the
    negative, and any meet found from the seeded state proves the positive
    exactly as a fresh search would.
    """
    if source == target:
        return True, True, "identity"
    if source not in graph or target not in graph:
        return False, True, "missing-endpoint"
    if partial is not None:
        fwd_seen = set(partial.fwd_visited)
        rev_seen = set(partial.rev_visited)
        fwd_seen.add(source)
        rev_seen.add(target)
        if fwd_seen & rev_seen:
            # The engine checks meets at visit time, so overlapping seeds
            # normally cannot happen — but if they do, it is a meet.
            return True, True, "meet"
        fwd_frontier = deque(partial.fwd_frontier)
        rev_frontier = deque(partial.rev_frontier)
    else:
        fwd_seen = {source}
        rev_seen = {target}
        fwd_frontier = deque([source])
        rev_frontier = deque([target])
    accesses = 0
    while fwd_frontier and rev_frontier:
        forward = len(fwd_frontier) <= len(rev_frontier)
        frontier = fwd_frontier if forward else rev_frontier
        seen = fwd_seen if forward else rev_seen
        other = rev_seen if forward else fwd_seen
        next_frontier: deque = deque()
        while frontier:
            v = frontier.popleft()
            for w in graph.neighbors(v, forward):
                accesses += 1
                if w in other:
                    return True, True, "meet"
                if w not in seen:
                    seen.add(w)
                    next_frontier.append(w)
            if accesses > budget:
                return False, False, "budget-exhausted"
        if forward:
            fwd_frontier = next_frontier
        else:
            rev_frontier = next_frontier
    return False, True, "frontier-exhausted"
