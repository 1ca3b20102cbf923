"""Vectorized CSR traversal and push kernels for the query hot path.

The dict-of-lists :class:`~repro.graph.digraph.DynamicDiGraph` is the
mutable source of truth, but its hot read loops (frontier BiBFS and the
Alg. 3 probability-guided drain) pay Python-interpreter cost per *edge*.
These kernels run the same algorithms over a frozen
:class:`~repro.graph.snapshot.CSRSnapshot` with numpy whole-frontier
operations, paying interpreter cost per *layer* (or per *drain sweep*)
instead — the flat-array adjacency O'Reach demonstrates dominates
pointer-chasing representations.

Contract
--------
* Every kernel is answer-equivalent to its dict twin on the same snapshot
  (asserted by ``tests/test_kernels.py``, ``tests/test_push_kernels.py``
  and the equivalence harnesses in ``benchmarks/bench_kernels.py`` /
  ``benchmarks/bench_push_kernel.py``); only edge-access *counts* may
  differ, because whole-layer expansion cannot early-exit mid-layer.
* The push-drain kernel (:func:`csr_push_drain`) is additionally
  *state-deterministic*: its sweep-synchronous semantics are pinned down
  exactly (dangling pass, sorted-frontier selection, epsilon-bucketed
  greedy filter, budget truncation, gather order, one ``np.add.at``
  scatter per sweep) so a scalar re-statement of the same sweeps
  reproduces its residue/visited/explored arrays bitwise — the A/B leg
  ``tests/test_push_kernels.py`` runs.
* Kernels never mutate the snapshot; all state (visited masks, frontiers,
  residue arrays) is caller-owned or per-call scratch.
* numpy is a declared dependency, so every caller may dispatch here; the
  dict twins that remain are selected per call (``IFCAParams.use_kernels``,
  ``bibfs_is_reachable(..., use_kernels=False)``), never by a
  process-wide switch, and one IFCA query runs on one substrate: the
  array state from start to answer, or the dict twins throughout.
"""

from __future__ import annotations

from typing import Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid an import cycle through digraph
    from repro.graph.snapshot import CSRSnapshot


# ----------------------------------------------------------------------
# Fault-injection hook (chaos testing)
# ----------------------------------------------------------------------
#: When set, called as ``hook(kernel_name)`` on entry to the substrate
#: kernels. The chaos harness (:mod:`repro.service.faults`) installs a
#: hook that raises mid-substrate, proving the serving layer's circuit
#: breaker catches kernel-path failures instead of killing the query.
_fault_hook = None


def set_fault_hook(hook):
    """Install (or clear, with ``None``) the kernel fault hook.

    Returns the previous hook so callers can restore it. Process-wide:
    intended for chaos tests and the ``repro chaos`` harness only.
    """
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    return previous


def _maybe_fault(name: str) -> None:
    hook = _fault_hook
    if hook is not None:
        hook(name)


# ----------------------------------------------------------------------
# Frontier primitives
# ----------------------------------------------------------------------
def gather_rows(offsets, targets, frontier):
    """Concatenate the adjacency slices of every frontier vertex.

    Equivalent to ``np.concatenate([targets[offsets[v]:offsets[v+1]] for v
    in frontier])`` but with no per-vertex Python iteration: the slice
    starts are repeated per slice length and offset by a running arange.
    """
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return targets[:0]
    cum = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return targets[idx]


#: Layers at most this large deduplicate with ``np.unique`` (O(f log f));
#: larger ones collapse duplicates through a scratch mask + ``flatnonzero``
#: (O(f + n), no sort), which wins once layers hold thousands of vertices.
_UNIQUE_CUTOFF = 128

#: Gathered layers larger than this are meet-tested in slices so a
#: positive query can stop partway through a huge layer, the same
#: mid-layer early-out the dict loop gets for free from its edge loop.
_MEET_CHUNK = 8192


def _dedup(fresh, scratch):
    """Collapse duplicates in ``fresh``; ``scratch`` is an all-``False``
    bool array restored before returning."""
    if len(fresh) <= _UNIQUE_CUTOFF:
        return np.unique(fresh)
    scratch[fresh] = True
    nxt = np.flatnonzero(scratch)
    scratch[nxt] = False
    return nxt


def _expand(
    offsets, targets, frontier, visited, other_visited, scratch, remap=None, overlay=None
):
    """One whole-layer expansion of ``frontier``.

    Returns ``(met, next_frontier, accesses)``. Mirrors the dict loop:
    neighbors already in ``visited`` are skipped *without* a meet test,
    unvisited neighbors are tested against the other direction, then
    marked visited and deduplicated into the next layer. ``scratch`` is a
    caller-owned all-``False`` bool array, restored before returning.

    With a ``remap``, a frontier index past the CSR is the super slot: its
    stored ``overlay`` row joins the gathered layer, and the whole layer is
    composed through ``remap`` once. The visited filter subsumes the dict
    loop's same-super self-edge skip: an entry mapping back to its own
    source (or slot) is necessarily already visited.
    """
    if remap is None:
        nbrs = gather_rows(offsets, targets, frontier)
    else:
        real = frontier[frontier < len(offsets) - 1]
        nbrs = gather_rows(offsets, targets, real)
        if len(real) != len(frontier) and len(overlay):
            nbrs = np.concatenate([nbrs, overlay])
        nbrs = remap[nbrs]
    total = len(nbrs)
    if total == 0:
        return False, nbrs, 0
    if total <= _MEET_CHUNK:
        fresh = nbrs[~visited[nbrs]]
        if len(fresh) == 0:
            return False, fresh, total
        if other_visited[fresh].any():
            return True, fresh, total
        visited[fresh] = True
        return False, _dedup(fresh, scratch), total
    # Huge layer: scan it slice by slice. Marking each slice visited
    # before moving on also filters cross-slice duplicates early, so only
    # intra-slice duplicates are left for the final dedup.
    pieces = []
    for lo in range(0, total, _MEET_CHUNK):
        chunk = nbrs[lo : lo + _MEET_CHUNK]
        fresh = chunk[~visited[chunk]]
        if len(fresh) == 0:
            continue
        if other_visited[fresh].any():
            return True, fresh, min(lo + _MEET_CHUNK, total)
        visited[fresh] = True
        pieces.append(fresh)
    if not pieces:
        return False, nbrs[:0], total
    return False, _dedup(np.concatenate(pieces), scratch), total


# ----------------------------------------------------------------------
# Guided-search push drain (Alg. 3 on array state)
# ----------------------------------------------------------------------

#: Greedy sweeps keep every frontier vertex whose score is within this
#: factor of the sweep's maximum (an epsilon-bucketed approximation of the
#: lazy max-heap: strictly highest-first ordering would serialize the
#: drain back to one vertex per sweep and lose all vectorization).
GREEDY_BUCKET = 4.0


def csr_push_drain(
    offsets,
    targets,
    deg,
    opp_deg,
    remap,
    overlay,
    super_slot,
    cand,
    residue,
    visited,
    explored,
    other_visited,
    epsilon,
    alpha,
    forward_style,
    greedy,
    push_budget,
):
    """One Alg. 3 drain as sweep-synchronous whole-frontier array passes.

    State layout (see :mod:`repro.core.array_search`): all state arrays are
    sized ``n + 2`` over the snapshot's compacted indices plus two super
    slots; ``remap`` maps stored CSR target indices to their current
    reduced-graph representative (``None`` until the first contraction —
    identity — after which it must cover every stored index and slot), and
    ``overlay`` is the stored adjacency of this direction's super-vertex
    (already remapped ids). ``deg`` holds reduced-graph directional
    degrees, ``opp_deg`` the clamped raw degrees against the direction
    (the backward-push divisor — raw, not lumped, exactly like the dict
    twin); both may be the plain length-``n`` tables while no contraction
    has happened (no slot is indexable before one exists).

    ``cand`` is the drain's sorted candidate list — a superset of every
    index with positive residue. Sweeps scan only it, never the whole
    state arrays, so a drain costs O(touched + edges), not O(n * sweeps);
    the updated candidate list is handed back for the next drain (residue
    only ever lands on scattered receivers, so the superset invariant is
    maintained by construction).

    Each sweep:

    1. drop drained candidates; zero the residue of dangling candidates
       (``deg == 0``) and mark them explored — their mass can never move
       (the dict twin's inline rule);
    2. select the whole pushable frontier, sorted ascending (forward
       style: ``residue >= epsilon * deg``; backward: ``residue >=
       epsilon``), keeping only the top epsilon-bucket under ``greedy``
       and truncating to the remaining ``push_budget``;
    3. mark the frontier explored, zero its residues, gather its CSR rows
       (plus ``overlay`` when the super slot is in the frontier), compose
       ``remap`` over the gathered targets, and drop same-representative
       self-loops;
    4. meet-test every not-yet-visited receiver against ``other_visited``
       — a hit returns immediately (the sweep's visited marks are *not*
       applied; the query is over) — then mark receivers visited;
    5. scatter the distributed residue with one ``np.add.at``
       (forward: ``(1-alpha) * r_u / deg[u]`` per edge; backward:
       ``(1-alpha) * r_u / opp_deg[raw_receiver]``) and merge the
       receivers into the candidate list.

    Push is not order-confluent, so visited/explored sets may differ from
    the lazy-heap dict twin's — both are sound, verdicts agree (the A/B
    harness asserts it). Counters use the shared contract: one push per
    vertex expansion, one edge access per adjacency entry gathered.

    Returns ``(met, cand, pushes, edge_accesses, int_edges,
    explored_added)``.
    """
    _maybe_fault("csr_push_drain")
    one_minus_alpha = 1.0 - alpha
    pushes = 0
    edge_accesses = 0
    int_edges = 0
    explored_added = 0
    n_base = len(offsets) - 1
    has_remap = remap is not None

    while True:
        # (1) candidate upkeep: drop drained, park dangling residue.
        r_cand = residue[cand]
        alive = r_cand > 0.0
        cand = cand[alive]
        r_cand = r_cand[alive]
        cand_deg = deg[cand]
        if not cand_deg.all():
            dmask = cand_deg == 0.0
            dangling = cand[dmask]
            residue[dangling] = 0.0
            newly = dangling[~explored[dangling]]
            explored[newly] = True
            explored_added += len(newly)
            live = ~dmask
            cand = cand[live]
            r_cand = r_cand[live]
            cand_deg = cand_deg[live]

        # (2) frontier selection (cand is sorted ascending, so the super
        # slot — the highest live index — lands last). ``r_cand`` stays
        # valid as the frontier residues: nothing below mutates ``residue``
        # at a frontier index before the capture point.
        sel = r_cand >= (epsilon * cand_deg if forward_style else epsilon)
        frontier = cand[sel]
        if len(frontier) == 0:
            break
        r_front = r_cand[sel]
        deg_front = cand_deg[sel]
        if greedy:
            scores = r_front / deg_front if forward_style else r_front
            gmask = scores >= scores.max() / GREEDY_BUCKET
            frontier = frontier[gmask]
            r_front = r_front[gmask]
            deg_front = deg_front[gmask]
        budget_stop = pushes + len(frontier) >= push_budget
        if budget_stop:
            take = max(push_budget - pushes, 0)
            if take == 0:
                break
            frontier = frontier[:take]
            r_front = r_front[:take]
            deg_front = deg_front[:take]
        pushes += len(frontier)

        # (3) expand: explored bookkeeping, residue capture, gather.
        nmask = ~explored[frontier]
        newly = frontier[nmask]
        explored[newly] = True
        explored_added += len(newly)
        int_edges += int(deg_front[nmask].sum())
        residue[frontier] = 0.0

        # The super slot can only sit in the frontier once a remap exists.
        real = frontier[frontier < n_base] if has_remap else frontier
        starts = offsets[real]
        counts = offsets[real + 1] - starts
        total = int(counts.sum())
        if total:
            cum = np.cumsum(counts)
            idx = np.arange(total, dtype=np.int64) + np.repeat(
                starts - (cum - counts), counts
            )
            raw = targets[idx]
        else:
            raw = targets[:0]
        src = np.repeat(real, counts)
        r_src = np.repeat(r_front[: len(real)], counts)
        if len(real) != len(frontier) and len(overlay):
            # Super slot in the frontier: its stored adjacency rides along.
            raw = np.concatenate([raw, overlay])
            src = np.concatenate(
                [src, np.full(len(overlay), super_slot, dtype=np.int64)]
            )
            r_src = np.concatenate(
                [r_src, np.full(len(overlay), r_front[-1])]
            )
        edge_accesses += len(raw)
        if len(raw) == 0:
            if budget_stop:
                break
            continue
        recv = remap[raw] if has_remap else raw
        keep = recv != src
        if not keep.all():
            recv = recv[keep]
            raw = raw[keep]
            src = src[keep]
            r_src = r_src[keep]
        if len(recv) == 0:
            if budget_stop:
                break
            continue

        # (4) meet test against the pre-sweep visited state, then mark.
        unseen = recv[~visited[recv]]
        if len(unseen) and other_visited[unseen].any():
            return True, cand, pushes, edge_accesses, int_edges, explored_added
        visited[unseen] = True

        # (5) distribute and fold the receivers into the candidate list.
        if forward_style:
            np.add.at(residue, recv, one_minus_alpha * r_src / deg[src])
        else:
            np.add.at(
                residue, recv, one_minus_alpha * r_src / opp_deg[raw]
            )
        cand = np.unique(np.concatenate([cand, recv]))
        if budget_stop:
            break

    return False, cand, pushes, edge_accesses, int_edges, explored_added


# ----------------------------------------------------------------------
# Bidirectional BFS
# ----------------------------------------------------------------------
def csr_bibfs(
    csr: "CSRSnapshot", source: int, target: int, budget=None
) -> Tuple[bool, int]:
    """Layer-alternating BiBFS over a snapshot; ``(answer, edge_accesses)``.

    ``source`` / ``target`` are original vertex ids and must exist in the
    snapshot (callers run the trivial tests first, exactly like the dict
    path). ``budget``, when given, is checkpointed once per layer (see
    :meth:`repro.graph.budget.Budget.checkpoint`); a raise abandons the
    kernel-local masks, so no partial state survives.
    """
    if source == target:
        return True, 0
    _maybe_fault("csr_bibfs")
    si = csr.index_of(source)
    ti = csr.index_of(target)
    n = csr.num_vertices
    visited_f = np.zeros(n, dtype=bool)
    visited_r = np.zeros(n, dtype=bool)
    visited_f[si] = True
    visited_r[ti] = True
    frontier_f = np.array([si], dtype=np.int64)
    frontier_r = np.array([ti], dtype=np.int64)
    return bibfs_loop(csr, frontier_f, frontier_r, visited_f, visited_r, budget)


def bibfs_loop(
    csr, frontier_f, frontier_r, visited_f, visited_r,
    budget=None, remap=None, overlay_f=None, overlay_r=None,
) -> Tuple[bool, int]:
    """Layer-alternating BiBFS from given frontiers; ``(met, accesses)``.

    The one scalar CSR BiBFS: :func:`csr_bibfs` runs it from ``{s}`` /
    ``{t}``, and IFCA's array hand-off (Alg. 5) from the guided search's
    frontiers and visited masks, which it extends in place. After a
    contraction the hand-off also passes the array state's ``remap`` and
    each direction's super-slot ``overlay`` (see
    :mod:`repro.core.array_search`); the masks then cover the two slots
    past the CSR's ``n`` vertices.
    """
    out_offsets, out_targets = csr.out_offsets, csr.out_targets
    in_offsets, in_targets = csr.in_offsets, csr.in_targets
    scratch = np.zeros(len(visited_f), dtype=bool)
    accesses = 0
    charged = 0
    # An exhausted frontier proves the negative: that side's visited set
    # is its full BFS closure and no meet happened, so the other side
    # need not keep expanding (the same early-out the dict twin takes).
    while len(frontier_f) and len(frontier_r):
        if budget is not None:
            # Charge-before-test ordering: a raise never double-charges.
            delta = accesses - charged
            charged = accesses
            budget.checkpoint(delta)
        met, frontier_f, acc = _expand(
            out_offsets, out_targets, frontier_f, visited_f, visited_r,
            scratch, remap, overlay_f,
        )
        accesses += acc
        if met:
            _charge_rest(budget, accesses - charged)
            return True, accesses
        if not len(frontier_f):
            break
        met, frontier_r, acc = _expand(
            in_offsets, in_targets, frontier_r, visited_r, visited_f,
            scratch, remap, overlay_r,
        )
        accesses += acc
        if met:
            _charge_rest(budget, accesses - charged)
            return True, accesses
    _charge_rest(budget, accesses - charged)
    return False, accesses


def _charge_rest(budget, delta: int) -> None:
    if budget is not None and delta:
        budget.charge(delta)
