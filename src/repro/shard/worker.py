"""Shard worker process: attach every segment, serve tagged waves.

Spawned (never forked — numpy state and the primary's locks must not be
inherited) with one end of a duplex pipe and the *fleet* spec: the
shared-memory segment of **every** shard in the plan. Attaching all of
them costs nothing beyond page-table entries — the segments are shared
physical pages — and it is what turns the fleet from K shard-bound
processes into a worker *pool*: any worker can serve a wave for any
shard, so the scheduler can hand a busy shard's waves to idle workers.

Wire protocol
-------------
Every request is ``(req_id, msg)`` and every reply ``(req_id, reply)``
— data plane and control plane alike. The id is opaque to the worker
and echoed verbatim; it is what lets the router's reactor keep several
requests in flight per worker and match replies out of posted order
across the fleet. The worker itself serves its own pipe strictly FIFO.
The ``msg`` / ``reply`` tuples:

``("ping",)``
    → ``("ok", version)`` — liveness + version handshake.
``("probe", version)``
    → ``("ok", version, [(num_vertices, num_edges), ...])`` — liveness
    *plus* a read through every attached CSR mapping: proves a freshly
    respawned worker really re-attached all published segments, not
    just that its pipe answers.
``("wave", version, shard, pairs, lead, time_left, edge_ceiling)``
    → ``("ok", answers, stats)`` — intra-shard bit-parallel BiBFS over
    shard ``shard``'s CSR, the message's pairs in one kernel call
    (:func:`~repro.graph.bitsearch.csr_bit_bibfs`); the budget's edge
    ceiling bounds the whole per-message batch.
``("reach", version, shard, seeds, extra_probes, forward, time_left, edge_ceiling)``
    → ``("ok", labels, stats)`` — one bit-label closure over shard
    ``shard`` (:func:`~repro.graph.bitsearch.csr_bit_reach`) reporting
    that shard's standing boundary probes plus ``extra_probes``.
``("swap", spec)``
    → ``("ok", version)`` — attach the republished fleet spec for a new
    graph epoch, then drop the old mappings.
``("stop",)``
    → ``("ok", "bye")`` and exit.

Version mismatches answer ``("stale", worker_version)``; an unknown
shard index answers ``("error", ...)``; expired budgets answer
``("budget", reason)``; any other exception answers ``("error", repr)``
and the loop survives — containment is the router's job, the worker
just reports.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.graph.bitsearch import csr_bit_bibfs, csr_bit_reach
from repro.graph.budget import Budget, BudgetExceeded
from repro.shard.memory import attach_snapshot


class _FleetState:
    """The worker's view of one published fleet epoch (all shards)."""

    def __init__(self, spec: Dict[str, object]) -> None:
        self.version = int(spec["version"])
        self.boundaries: List[List[int]] = []
        self.shms = []
        self.csrs = []
        try:
            for shard_spec in spec["shards"]:  # type: ignore[union-attr]
                shm, csr = attach_snapshot(
                    str(shard_spec["name"]), shard_spec["manifest"]
                )
                self.shms.append(shm)
                self.csrs.append(csr)
                self.boundaries.append(list(shard_spec["boundary_out"]))
        except Exception:
            self.release()
            raise

    def release(self) -> None:
        """Drop every mapping (best effort: live views pin them)."""
        self.csrs = []
        for shm in self.shms:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a view outlived the swap
                pass
        self.shms = []


def _budget(time_left: Optional[float], edge_ceiling: Optional[int]) -> Optional[Budget]:
    if time_left is None and edge_ceiling is None:
        return None
    return Budget.from_timeout(time_left, edge_ceiling)


def shard_worker_main(conn, spec: Dict[str, object]) -> None:
    """Entry point for one spawned shard worker (blocks until stopped)."""
    state = _FleetState(spec)
    try:
        while True:
            try:
                req_id, msg = conn.recv()
            except (EOFError, OSError):
                break

            def respond(reply: Tuple) -> None:
                conn.send((req_id, reply))

            kind = msg[0]
            if kind == "stop":
                respond(("ok", "bye"))
                break
            try:
                if kind == "swap":
                    new_state = _FleetState(msg[1])
                    respond(("ok", new_state.version))
                    state.release()
                    state = new_state
                else:
                    respond(_handle(state, msg))
            except BudgetExceeded as exc:
                respond(("budget", exc.reason))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                respond(("error", repr(exc)))
    finally:
        state.release()
        conn.close()


def _handle(state: _FleetState, msg: Tuple) -> Tuple:
    kind = msg[0]
    if kind == "ping":
        return ("ok", state.version)
    if kind == "probe":
        if msg[1] != state.version:
            return ("stale", state.version)
        # Touch every mapping end to end — a probe must fault the pages
        # a respawned worker claims to have re-attached.
        return (
            "ok",
            state.version,
            [(csr.num_vertices, csr.num_edges) for csr in state.csrs],
        )
    if kind == "wave":
        _version, shard, pairs, lead, time_left, edge_ceiling = msg[1:]
        if _version != state.version:
            return ("stale", state.version)
        csr = state.csrs[shard]
        started = time.perf_counter()
        budget = _budget(time_left, edge_ceiling)
        answers, stats = csr_bit_bibfs(csr, pairs, budget=budget, lead=lead)
        return (
            "ok",
            answers,
            (stats.lanes, stats.layers, stats.edge_accesses,
             time.perf_counter() - started, stats.sweeps),
        )
    if kind == "reach":
        (_version, shard, seeds, extra_probes, forward,
         time_left, edge_ceiling) = msg[1:]
        if _version != state.version:
            return ("stale", state.version)
        started = time.perf_counter()
        boundary = state.boundaries[shard]
        probes = boundary if not extra_probes else [*boundary, *extra_probes]
        labels, stats = csr_bit_reach(
            state.csrs[shard],
            [tuple(s) for s in seeds],
            probes,
            forward=bool(forward),
            budget=_budget(time_left, edge_ceiling),
        )
        return (
            "ok",
            labels,
            (stats.lanes, stats.layers, stats.edge_accesses,
             time.perf_counter() - started),
        )
    return ("error", f"unknown message kind {kind!r}")
