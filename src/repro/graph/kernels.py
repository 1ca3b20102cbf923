"""Vectorized CSR traversal and push kernels for the query hot path.

The dict-of-lists :class:`~repro.graph.digraph.DynamicDiGraph` is the
mutable source of truth, but its hot read loops (frontier BiBFS,
supportive-set construction, sweep scans, and — since the push kernels —
the Alg. 3 probability-guided drain itself) pay Python-interpreter cost
per *edge*. These kernels run the same algorithms over a frozen
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
* The push-drain kernels (:func:`csr_push_drain`,
  :func:`csr_forward_push_drain`) are additionally *state-deterministic*:
  their sweep-synchronous semantics are pinned down exactly (dangling
  pass, sorted-frontier selection, epsilon-bucketed greedy filter, budget
  truncation, gather order, one ``np.add.at`` scatter per sweep) so a
  scalar re-statement of the same sweeps reproduces their
  residue/visited/explored arrays bitwise — the A/B leg
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

from typing import Dict, Iterable, List, Set, Tuple, TYPE_CHECKING

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
def _gather(offsets, targets, frontier):
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


def _expand(offsets, targets, frontier, visited, other_visited, scratch):
    """One whole-layer expansion of ``frontier``.

    Returns ``(met, next_frontier, accesses)``. Mirrors the dict loop:
    neighbors already in ``visited`` are skipped *without* a meet test,
    unvisited neighbors are tested against the other direction, then
    marked visited and deduplicated into the next layer. ``scratch`` is a
    caller-owned all-``False`` bool array, restored before returning.
    """
    nbrs = _gather(offsets, targets, frontier)
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


def gather_rows(offsets, targets, frontier):
    """Public alias of :func:`_gather` for the array-state search layer.

    ``frontier`` must contain compacted indices within the CSR (no super
    slots); the result concatenates the adjacency rows in frontier order.
    """
    return _gather(offsets, targets, frontier)


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
# PPR forward-push drain (plain CSR, no overlay)
# ----------------------------------------------------------------------
def csr_forward_push_drain(
    offsets, targets, residue, reserve, alpha, epsilon, max_operations=None
):
    """Forward push (ACL06) to quiescence as whole-frontier sweeps.

    ``residue`` / ``reserve`` are dense float64 arrays over compacted
    indices, mutated in place. Each sweep pushes *every* vertex with
    ``residue >= epsilon * d_out`` at once: reserve takes ``alpha * r``,
    one gather + ``np.add.at`` scatters ``(1-alpha) * r / d_out`` along
    the out-edges. Dangling residue becomes reserve (the walk halts).
    Terminates within Lemma 1's ``1/(alpha*epsilon)`` edge accesses —
    the bound is order-free, so it holds for sweeps too.

    Returns ``(pushes, edge_accesses)`` in the shared counter units.
    """
    deg = (offsets[1:] - offsets[:-1]).astype(np.float64)
    one_minus_alpha = 1.0 - alpha
    pushes = 0
    edge_accesses = 0
    while True:
        dangling = np.flatnonzero((residue > 0.0) & (deg == 0.0))
        if len(dangling):
            reserve[dangling] += residue[dangling]
            residue[dangling] = 0.0
        frontier = np.flatnonzero((deg > 0.0) & (residue >= epsilon * deg))
        if len(frontier) == 0:
            break
        budget_stop = (
            max_operations is not None
            and pushes + len(frontier) >= max_operations
        )
        if budget_stop:
            frontier = frontier[: max(max_operations - pushes, 0)]
            if len(frontier) == 0:
                break
        pushes += len(frontier)
        r_front = residue[frontier].copy()
        reserve[frontier] += alpha * r_front
        residue[frontier] = 0.0
        counts = offsets[frontier + 1] - offsets[frontier]
        nbrs = _gather(offsets, targets, frontier)
        edge_accesses += len(nbrs)
        np.add.at(
            residue,
            nbrs,
            np.repeat(one_minus_alpha * r_front / counts, counts),
        )
        if budget_stop:
            break
    return pushes, edge_accesses


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
    :meth:`repro.core.budget.Budget.checkpoint`); a raise abandons the
    kernel-local masks, so no partial state survives.
    """
    if source == target:
        return True, 0
    si = csr.index_of(source)
    ti = csr.index_of(target)
    n = csr.num_vertices
    visited_f = np.zeros(n, dtype=bool)
    visited_r = np.zeros(n, dtype=bool)
    visited_f[si] = True
    visited_r[ti] = True
    frontier_f = np.array([si], dtype=np.int64)
    frontier_r = np.array([ti], dtype=np.int64)
    return _bibfs_loop(csr, frontier_f, frontier_r, visited_f, visited_r, budget)


def _bibfs_loop(csr, frontier_f, frontier_r, visited_f, visited_r, budget=None):
    _maybe_fault("csr_bibfs")
    out_offsets, out_targets = csr.out_offsets, csr.out_targets
    in_offsets, in_targets = csr.in_offsets, csr.in_targets
    scratch = np.zeros(csr.num_vertices, dtype=bool)
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
            out_offsets, out_targets, frontier_f, visited_f, visited_r, scratch
        )
        accesses += acc
        if met:
            _charge_rest(budget, accesses - charged)
            return True, accesses
        if not len(frontier_r):
            break
        met, frontier_r, acc = _expand(
            in_offsets, in_targets, frontier_r, visited_r, visited_f, scratch
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


# ----------------------------------------------------------------------
# Reachable-set kernels (supportive-vertex construction)
# ----------------------------------------------------------------------
def csr_reachable_mask(csr: "CSRSnapshot", start_index: int, forward: bool = True):
    """Boolean mask (compacted indexing) of the BFS closure of one vertex."""
    offsets = csr.out_offsets if forward else csr.in_offsets
    targets = csr.out_targets if forward else csr.in_targets
    visited = np.zeros(csr.num_vertices, dtype=bool)
    visited[start_index] = True
    frontier = np.array([start_index], dtype=np.int64)
    while len(frontier):
        nbrs = _gather(offsets, targets, frontier)
        fresh = nbrs[~visited[nbrs]]
        visited[fresh] = True
        frontier = np.unique(fresh)
    return visited


def csr_reachable_set(csr: "CSRSnapshot", start: int, forward: bool = True) -> Set[int]:
    """The BFS closure of ``start`` (original ids), kernel-computed.

    Drop-in for :func:`repro.graph.traversal.bfs_reachable` /
    ``reverse_bfs_reachable`` on the frozen snapshot.
    """
    mask = csr_reachable_mask(csr, csr.index_of(start), forward)
    return set(csr.vertex_ids[mask].tolist())


def csr_multi_reachable_sets(
    csr: "CSRSnapshot", starts: Iterable[int], forward: bool = True
) -> Dict[int, Set[int]]:
    """Batched closure construction for many sources on one snapshot.

    Used by the fast-path pruner's supportive-set rebuild: one frozen
    view, ``k`` vectorized sweeps, no dict adjacency walking.
    """
    return {x: csr_reachable_set(csr, x, forward) for x in starts}


# ----------------------------------------------------------------------
# Degree / conductance scans (community sweep)
# ----------------------------------------------------------------------
def csr_total_degrees(csr: "CSRSnapshot"):
    """``d_out + d_in`` per compacted vertex, one vectorized subtraction."""
    out_deg = csr.out_offsets[1:] - csr.out_offsets[:-1]
    in_deg = csr.in_offsets[1:] - csr.in_offsets[:-1]
    return out_deg + in_deg


def csr_sweep_cut(
    csr: "CSRSnapshot",
    ppr: Dict[int, float],
    max_size: int = 0,
) -> Tuple[Set[int], float]:
    """Vectorized Andersen–Chung–Lang sweep; twin of ``sweep_cut``.

    The incremental boundary bookkeeping of the dict sweep becomes a
    difference-array scan: a directed edge ``(u, v)`` is a boundary edge
    of prefix ``k`` exactly while ``rank(u) <= k < max(rank(u), rank(v))``
    (vertices outside the prefix rank ``+inf``), so the whole conductance
    profile is two ``bincount`` passes and a ``cumsum``.
    """
    degrees = csr_total_degrees(csr)
    index_of = csr.index_of
    items = [
        (v, value) for v, value in ppr.items() if value > 0 and csr.has_vertex(v)
    ]
    if not items:
        return set(), 1.0
    ids = np.array([v for v, _ in items], dtype=np.int64)
    values = np.array([value for _, value in items], dtype=np.float64)
    idx = np.array([index_of(int(v)) for v in ids], dtype=np.int64)
    scores = values / np.maximum(degrees[idx], 1)
    # Descending score, ties broken by descending vertex id — the exact
    # order of the dict sweep's ``sorted(..., reverse=True)`` on
    # ``(score, v)`` tuples.
    order = np.lexsort((-ids, -scores))
    if max_size > 0:
        order = order[:max_size]
    ranked_idx = idx[order]
    ranked_ids = ids[order]
    num_ranked = len(ranked_idx)

    rank = np.full(csr.num_vertices, num_ranked + 1, dtype=np.int64)
    rank[ranked_idx] = np.arange(1, num_ranked + 1, dtype=np.int64)

    vol = np.cumsum(degrees[ranked_idx])
    out_counts = csr.out_offsets[ranked_idx + 1] - csr.out_offsets[ranked_idx]
    nbrs = _gather(csr.out_offsets, csr.out_targets, ranked_idx)
    rank_u = np.repeat(np.arange(1, num_ranked + 1, dtype=np.int64), out_counts)
    rank_v = rank[nbrs]
    removed_at = np.minimum(np.maximum(rank_u, rank_v), num_ranked + 1)
    adds = np.bincount(rank_u, minlength=num_ranked + 2)
    rems = np.bincount(removed_at, minlength=num_ranked + 2)
    boundary = np.cumsum((adds - rems)[1 : num_ranked + 1])

    two_m = 2 * csr.num_edges
    denom = np.minimum(vol, two_m - vol)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(denom > 0, boundary / np.maximum(denom, 1), 1.0)
    best = int(np.argmin(phi))
    best_phi = float(phi[best])
    if best_phi >= 1.0:
        return set(), 1.0
    return set(int(v) for v in ranked_ids[: best + 1]), best_phi
