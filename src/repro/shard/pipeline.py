"""Event-driven scheduler over the shard worker pool.

A round-synchronous scatter–gather (post to the frontier shards, block
until the slowest reply, repeat, one cross-shard group at a time) leaves
K workers mostly idle while one round's straggler finishes. The fleet's
one scheduler is a reactor instead:

- **Jobs, not rounds.** The unit of work is one tagged request — an
  intra-shard ≤64-lane wave or one shard's closure step of one
  cross-shard group. All jobs from all groups share one global queue.
- **Chaotic iteration.** The cross-shard fixpoint is a monotone join
  (per-shard ``sent`` masks and the ``result`` word only grow), so it is
  confluent: a group may advance the moment *its own* reply lands,
  regardless of what other shards or other groups are doing. No round
  barrier is needed for correctness (``tests/test_shard.py`` checks the
  order independence against a BFS oracle, reply order randomized).
- **Worker pool.** Every worker has every shard's segment attached
  (shared physical pages), so any job can run on any worker. The
  scheduler posts to the least-loaded live worker, bounded by
  :data:`INFLIGHT_WINDOW` requests per worker; when every live worker's
  window is full the queue backs up (``route_inflight_stalls``) instead
  of overrunning the pipes.
- **Reply matching.** Requests are tagged with run-local ids
  (``(req_id, msg)`` on the wire, see :mod:`repro.shard.worker`), so the
  reactor can hold many requests in flight per worker and match each
  reply to its job no matter the completion order across the fleet.

**Containment.** A worker death (pipe error, EOF, or oldest-request age
past ``call_timeout_s`` — the SIGSTOP conviction) kills only that worker
and fails only *its* in-flight jobs. A failed intra job surrenders its
pairs as unresolved; a failed cross job cancels its whole group
(all-or-nothing: a partial fixpoint could answer a lane ``False`` while
the dead shard held its only path). A cancelled group's requests still in flight on *surviving*
workers are drained and discarded as their replies arrive — the tagged
protocol keeps every pipe coherent for the next batch.
"""

from __future__ import annotations

import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Deque, Dict, List, Optional, Tuple

Pair = Tuple[int, int]
Verdict = Tuple[bool, str]

#: Tagged requests in flight per worker before the queue backs up. Wide
#: enough to hide the pipe round trip behind the worker's current wave,
#: narrow enough that a convicted worker strands few jobs.
INFLIGHT_WINDOW = 4


class GroupState:
    """One ≤64-lane cross-shard fixpoint, advanced reply by reply."""

    __slots__ = (
        "pairs", "target_shard", "targets_in", "sent", "prune_cache",
        "frontier", "result", "outstanding", "failed", "done",
    )

    def __init__(self, plan, pairs: List[Pair]) -> None:
        self.pairs = pairs
        self.target_shard = [plan.shard_of[t] for _, t in pairs]
        # Targets to probe inside each shard, by lane mask.
        self.targets_in: Dict[int, Dict[int, int]] = {}
        for lane, (_s, t) in enumerate(pairs):
            shard_targets = self.targets_in.setdefault(
                self.target_shard[lane], {}
            )
            shard_targets[t] = shard_targets.get(t, 0) | (1 << lane)
        self.sent: Dict[int, Dict[int, int]] = {}
        self.prune_cache: Dict[int, int] = {}
        self.frontier: Dict[int, Dict[int, int]] = {}
        for lane, (s, _t) in enumerate(pairs):
            seeds = self.frontier.setdefault(plan.shard_of[s], {})
            seeds[s] = seeds.get(s, 0) | (1 << lane)
        self.result = 0
        self.outstanding = 0
        self.failed = False
        self.done = False

    def prune_mask(self, plan, shard: int) -> int:
        """Lanes allowed to enter ``shard`` (quotient-closure prune)."""
        mask = self.prune_cache.get(shard)
        if mask is None:
            mask = 0
            reach = plan.quotient_reach[shard]
            for lane, kt in enumerate(self.target_shard):
                if kt in reach:
                    mask |= 1 << lane
            self.prune_cache[shard] = mask
        return mask

    def absorb(self, plan, shard: int, labels: Dict[int, int]) -> None:
        """Fold one shard's closure reply into the lane state."""
        for t, lane_mask in self.targets_in.get(shard, {}).items():
            self.result |= labels.get(t, 0) & lane_mask
        cross_edges = plan.cross_out.get(shard, {})
        for u, mask in labels.items():
            heads = cross_edges.get(u)
            if not heads:
                continue
            carry = mask & ~self.result
            if not carry:
                continue
            for v, kv in heads:
                seeds = self.frontier.setdefault(kv, {})
                seeds[v] = seeds.get(v, 0) | carry

    def flush(self, plan) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """Drain the frontier into fresh ``(shard, seeds)`` posts.

        Seeds already sent to a shard, lanes already proven, and lanes
        the quotient closure prunes for that shard are all masked out;
        the monotone ``sent`` record is what bounds the fixpoint.
        """
        posts: List[Tuple[int, List[Tuple[int, int]]]] = []
        for shard, seeds in self.frontier.items():
            live = self.prune_mask(plan, shard) & ~self.result
            if not live:
                continue
            shard_sent = self.sent.setdefault(shard, {})
            fresh: List[Tuple[int, int]] = []
            for v, mask in seeds.items():
                mask &= live & ~shard_sent.get(v, 0)
                if mask:
                    fresh.append((v, mask))
                    shard_sent[v] = shard_sent.get(v, 0) | mask
            if fresh:
                posts.append((shard, fresh))
        self.frontier = {}
        return posts

    def verdicts(self) -> Dict[Pair, Verdict]:
        """Final lane verdicts — sound only once the group drained."""
        return {
            pair: (bool((self.result >> lane) & 1), "cross")
            for lane, pair in enumerate(self.pairs)
        }


class _IntraJob:
    __slots__ = ("shard", "pairs")

    def __init__(self, shard: int, pairs: List[Pair]) -> None:
        self.shard = shard
        self.pairs = pairs


class _CrossJob:
    __slots__ = ("group", "shard", "seeds")

    def __init__(
        self, group: GroupState, shard: int, seeds: List[Tuple[int, int]]
    ) -> None:
        self.group = group
        self.shard = shard
        self.seeds = seeds


class PipelineRun:
    """One batch's reactor: queue jobs, multiplex pipes, match replies."""

    def __init__(self, router, *, deadline=None, edge_ceiling=None) -> None:
        self._router = router
        self._plan = router._plan
        self._deadline = deadline
        self._edge_ceiling = edge_ceiling
        self._window = INFLIGHT_WINDOW
        self._pending: Deque = deque()
        # req_id -> (job, worker index, posted-at monotonic stamp)
        self._inflight: Dict[int, Tuple[object, int, float]] = {}
        self._worker_load: List[int] = [0] * len(router._workers)
        self._next_id = 0
        self.resolved: Dict[Pair, Verdict] = {}
        self.unresolved: List[Pair] = []

    # -- job intake ----------------------------------------------------
    def add_intra(self, shard: int, pairs: List[Pair]) -> None:
        self._pending.append(_IntraJob(shard, list(pairs)))

    def add_group(self, pairs: List[Pair]) -> None:
        group = GroupState(self._plan, list(pairs))
        self._spawn_group_posts(group)

    # -- reactor loop --------------------------------------------------
    def run(self) -> Tuple[Dict[Pair, Verdict], List[Pair]]:
        while self._pending or self._inflight:
            self._pump()
            if not self._inflight:
                # Nothing postable and nothing to wait on: the fleet is
                # gone (every pump failure path drains into unresolved).
                self._fail_all_pending()
                break
            self._wait_once()
        return self.resolved, self.unresolved

    def _pump(self) -> None:
        """Post queued jobs into live workers' open window slots."""
        stalled = False
        while self._pending:
            job = self._pending[0]
            if isinstance(job, _CrossJob) and job.group.failed:
                self._pending.popleft()
                continue
            widx = self._pick_worker()
            if widx < 0:
                if self._inflight:
                    stalled = True
                else:
                    self._fail_all_pending()
                break
            self._pending.popleft()
            self._post(job, widx)
        if stalled:
            self._router._incr("route_inflight_stalls")

    def _pick_worker(self) -> int:
        best, best_load = -1, None
        for idx, worker in enumerate(self._router._workers):
            if not worker.alive:
                continue
            load = self._worker_load[idx]
            if load >= self._window:
                continue
            if best_load is None or load < best_load:
                best, best_load = idx, load
        return best

    def _encode(self, job) -> Tuple:
        time_left = self._router._time_left(self._deadline)
        version = self._plan.version
        if isinstance(job, _IntraJob):
            return (
                "wave", version, job.shard, job.pairs, "forward",
                time_left, self._edge_ceiling,
            )
        return (
            "reach", version, job.shard, job.seeds,
            list(job.group.targets_in.get(job.shard, {})), True,
            time_left, self._edge_ceiling,
        )

    def _post(self, job, widx: int) -> None:
        handle = self._router._workers[widx]
        req_id = self._next_id
        self._next_id += 1
        try:
            handle.conn.send((req_id, self._encode(job)))
        except (OSError, BrokenPipeError, ValueError):
            self._convict(widx, "worker pipe failed on post")
            # The job itself is fine — retry it on another worker.
            if not (isinstance(job, _CrossJob) and job.group.failed):
                self._pending.appendleft(job)
            return
        self._inflight[req_id] = (job, widx, time.monotonic())
        self._worker_load[widx] += 1

    def _wait_once(self) -> None:
        """One reactor turn: multiplex every pipe with work in flight."""
        router = self._router
        timeout_s = router.call_timeout_s
        now = time.monotonic()
        # Conviction deadline per worker: its *oldest* in-flight request
        # must answer within call_timeout_s. This is the SIGSTOP catch —
        # a stopped worker's pipe never goes ready, only stale.
        convict_at: Dict[int, float] = {}
        for _job, widx, posted in self._inflight.values():
            stamp = posted + timeout_s
            if widx not in convict_at or stamp < convict_at[widx]:
                convict_at[widx] = stamp
        conns = {}
        for widx in convict_at:
            worker = router._workers[widx]
            if worker.alive:
                conns[worker.conn] = widx
        if not conns:
            # Every worker with in-flight work is already dead.
            for widx in list(convict_at):
                self._convict(widx, "worker died")
            return
        timeout = max(0.0, min(convict_at.values()) - now)
        ready = mp_connection.wait(list(conns), timeout=timeout)
        for conn in ready:
            widx = conns[conn]
            try:
                while True:
                    self._on_reply(widx, conn.recv())
                    if not conn.poll(0):
                        break
            except (EOFError, OSError, BrokenPipeError):
                self._convict(widx, "worker pipe failed")
        now = time.monotonic()
        for widx, stamp in convict_at.items():
            if now >= stamp and self._oldest_post(widx) is not None:
                age = now - self._oldest_post(widx)
                if age >= timeout_s:
                    self._convict(
                        widx, f"worker call timed out after {timeout_s}s"
                    )

    def _oldest_post(self, widx: int) -> Optional[float]:
        oldest = None
        for _job, owner, posted in self._inflight.values():
            if owner == widx and (oldest is None or posted < oldest):
                oldest = posted
        return oldest

    # -- reply handling ------------------------------------------------
    def _on_reply(self, widx: int, reply) -> None:
        req_id, payload = reply
        entry = self._inflight.pop(req_id, None)
        if entry is None:  # pragma: no cover - unknown id, ignore
            return
        job, owner, _posted = entry
        self._worker_load[owner] -= 1
        router = self._router
        kind = payload[0]
        if isinstance(job, _IntraJob):
            if kind == "ok":
                _ok, answers, stats = payload
                router._incr("worker_edge_accesses", int(stats[2]))
                router._incr("route_waves", int(stats[4]))
                router._incr("route_wave_pairs", len(job.pairs))
                for pair, answer in zip(job.pairs, answers):
                    self.resolved[pair] = (bool(answer), "wave")
            else:
                self._note_reply_failure(kind, payload)
                self.unresolved.extend(job.pairs)
            return
        group = job.group
        group.outstanding -= 1
        if group.failed:
            return  # draining a cancelled group's straggler
        if kind != "ok":
            self._note_reply_failure(kind, payload)
            self._fail_group(group)
            return
        _ok, labels, stats = payload
        router._incr("worker_edge_accesses", int(stats[2]))
        group.absorb(self._plan, job.shard, labels)
        self._spawn_group_posts(group)

    def _spawn_group_posts(self, group: GroupState) -> None:
        posts = group.flush(self._plan)
        for shard, seeds in posts:
            group.outstanding += 1
            self._pending.append(_CrossJob(group, shard, seeds))
        if posts:
            self._router._incr("route_cross_posts", len(posts))
        elif group.outstanding == 0 and not group.done:
            group.done = True
            self.resolved.update(group.verdicts())
            self._router._incr("route_cross_pairs", len(group.pairs))

    def _note_reply_failure(self, kind: str, payload) -> None:
        router = self._router
        if kind == "budget":
            router._incr("route_budget_exceeded")
        elif kind == "stale":
            router._incr("route_stale")
        else:
            router._incr("worker_failures")

    # -- failure paths -------------------------------------------------
    def _fail_group(self, group: GroupState) -> None:
        """All-or-nothing cancel: every lane goes back unresolved."""
        group.failed = True
        self.unresolved.extend(group.pairs)

    def _convict(self, widx: int, reason: str) -> None:
        """Kill one worker and fail only *its* in-flight jobs."""
        router = self._router
        handle = router._workers[widx]
        if handle.alive:
            handle.kill()
            router._incr("worker_failures")
        doomed = [
            req_id
            for req_id, (_job, owner, _posted) in self._inflight.items()
            if owner == widx
        ]
        for req_id in doomed:
            job, _owner, _posted = self._inflight.pop(req_id)
            if isinstance(job, _IntraJob):
                self.unresolved.extend(job.pairs)
            else:
                job.group.outstanding -= 1
                if not job.group.failed and not job.group.done:
                    self._fail_group(job.group)
        self._worker_load[widx] = 0

    def _fail_all_pending(self) -> None:
        while self._pending:
            job = self._pending.popleft()
            if isinstance(job, _IntraJob):
                self.unresolved.extend(job.pairs)
            else:
                job.group.outstanding -= 1
                if not job.group.failed and not job.group.done:
                    self._fail_group(job.group)
