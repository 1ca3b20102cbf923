"""Bit-parallel batched reachability: a frame of BiBFS queries per sweep.

DBL (Lyu et al., 2021) packs per-vertex reachability labels into machine
words so one AND/OR compares 64 landmarks at once. This module applies
the same word-packing to *query execution*: 64 pairs share a uint64, a
batch of ``B`` pairs is ``ceil(B/64)`` **word-groups**, and one
bidirectional BFS sweep over the frozen CSR snapshot advances every lane
of every group together — per-edge work is a word OR instead of a
per-query set insertion, and numpy dispatch is paid once per layer for
the whole frame rather than once per layer per query (or per word).

Lane semantics
--------------
Lane ``q`` (bit ``q % 64`` of group ``q // 64``) belongs to pair
``(sources[q], targets[q])``:

* ``label_f[g*n + v]`` carries bit ``q % 64`` iff ``v`` is reachable from
  ``sources[q]`` through the layers explored so far (``g = q // 64``);
* ``label_r[g*n + v]`` carries it iff ``targets[q]`` is reachable from
  ``v`` likewise;
* a **meet** — both labels of one row non-zero in lane ``q`` — proves
  the positive;
* a lane that stops appearing on one side's frontier has had that side's
  *full* closure explored without a meet, which proves the negative: if
  ``t`` were reachable, the forward closure would contain ``t``, where the
  reverse seed bit already waits.

Layout: block-sparse rows, one loop
-----------------------------------
State is keyed by **row** ``g*n + v`` with one uint64 per row: a frontier
is a sorted row array plus the lanes each row *gained* last layer
(delta-based propagation: earlier lanes were pushed when they arrived),
``pending`` / ``adv`` / ``result`` are ``(groups,)`` arrays, and per-group
ORs are one ``reduceat`` over the already-sorted rows. Only rows that
carry a live lane exist, so a group whose lanes are all resolved costs
nothing from then on, and a frame of any width advances in one set of
numpy calls per layer. With one group the rows *are* the vertices, the
scatter keys stay the narrow ``uint16`` targets (numpy radix-sorts only
<= 16-bit keys) and ``pending`` is ``pending[0]`` — the same loop.

Wide is only right while layers are light. On ``batch_search`` frames
(1024 searchable pairs, sparse 50k-vertex graph) a layer gathers ~125
edges per group, all dispatch: 16 one-group calls cost 18.5-19.9
ms/frame, one wide call 6.2-6.6. On bandwidth-bound input (dense 50k
graph, uniform pairs, 770k edges/frame) staying wide to the end costs
61-62 ms/frame against 47-49 for 16 one-group calls: the label blocks
leave cache and the keys lose the radix sort. So the loop watches the
quantity that decides it: when the cheaper side's next expansion exceeds
:data:`HEAVY_GROUP_EDGES` edges per live word-group (a non-zero word of
``pending``), every still-pending group finishes **alone**, re-entering
the same loop with one group over its own contiguous ``(n,)`` label
block. The rule is per group because a frame-wide edge count moves its
split point with the sweep's width: the frame-wide 32 768 it replaces
was measured on ten-group sweeps, and once a frame was one sixteen-group
sweep it split sparse uniform frames after a few layers (139 layers a
frame against 17.5 with the per-group rule; 16.1 / 31.0 / 29.1 ms/frame
against 14.4 / 13.0 / 19.0 in three alternating runs).

Measured on the 50k-vertex ``benchmarks/e2e`` graphs, 1024-pair frames
packed as the service packs them (``pack_waves``), answers identical on
every frame; ms/frame, median [quartiles] of five alternating runs of
three repetitions each, 2-vCPU x86-64 host, numpy 2.4.6:

==========================  ======================  ==================
input                       two sweeps, frame-wide  one sweep,
                            32 768 (before)         per-group 3 277
==========================  ======================  ==================
``batch_search`` pool       9.7 [9.1-10.2],         7.7 [7.6-8.4],
(16 frames, seed 1)         2 sweeps, 35.7 layers   1 sweep, 18 layers
sparse, uniform pairs       20.9 [20.8-22.4],       20.1 [18.9-21.1],
(4 frames)                  33.5 layers             17.5 layers
dense, uniform pairs        73.7 [73.2-75.5],       74.9 [73.5-78.6],
(4 frames)                  57.8 layers             55.8 layers
==========================  ======================  ==================

and :data:`HEAVY_GROUP_EDGES` at 2 048 / **3 277** / 4 096 / 6 144 in
the same runs: pool 8.0 / **7.7** / 7.7 / 7.9, sparse 31.8 (139
layers: splits too early) / **20.1** / 20.0 / 20.5, dense 71.5 /
**74.9** / 72.1 / 77.4 (dense runs spread 62-85 at every value, so no
value is resolvably best there). 3 277 is 32 768 / 10 — the frame-wide
rule at the width it was measured on — and the lowest of the four that
keeps sparse frames wide.

Label blocks live in one process-wide scratch pair (:class:`_Scratch`),
held under a lock for the duration of a kernel call and zeroed by
touched rows on every way out. A call grows them to its ``words x n``
rows, up to :data:`_SCRATCH_ROWS`; a batch wider than that ceiling runs
as successive sweeps inside the call.

Budgets are checkpointed at layer boundaries exactly like the scalar
kernels: edge accesses are charged *before* the layer is examined, so a
:class:`~repro.core.budget.BudgetExceeded` cannot be outrun by one huge
layer. A lane leaves ``pending`` only once decided, so an interrupted
call hands its decided lanes out with the exception.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.budget import Budget, BudgetExceeded
from repro.graph.kernels import _gather, _maybe_fault

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.snapshot import CSRSnapshot

#: Lanes per label word.
WORD_BITS = 64

#: Ceiling on rows (one uint64 each) per scratch label block: 8 MiB a
#: side. A call takes ``words x n`` rows up to it, so a sweep carries
#: ``_SCRATCH_ROWS // n`` word-groups (20 at n = 50k) and wider batches
#: run as successive sweeps inside one kernel call.
_SCRATCH_ROWS = 1 << 20

#: A layer whose expansion gathers more edges than this many per live
#: word-group is bandwidth-bound, and from there each word-group
#: finishes alone. Per group, so the split point does not move with how
#: many groups share a sweep; measured, not tuned per deployment (2 048
#: / 3 277 / 4 096 / 6 144 are compared in the module docstring).
HEAVY_GROUP_EDGES = 3277


def words_for(lanes: int) -> int:
    """How many uint64 words a batch of ``lanes`` queries occupies."""
    return (lanes + WORD_BITS - 1) // WORD_BITS


def _sweep_span(num_vertices: int) -> int:
    """Word-groups one sweep carries on a graph of ``num_vertices``."""
    return max(1, _SCRATCH_ROWS // max(1, num_vertices))


def sweeps_for(lanes: int, num_vertices: int) -> int:
    """How many sweeps a kernel call over ``lanes`` queries takes."""
    return -(-words_for(lanes) // _sweep_span(num_vertices))


def _sweep_targets(csr: "CSRSnapshot"):
    """(out_targets, in_targets) in the narrowest dtype the sweep can use.

    The per-layer gather/sort/compare passes are memory-bound, so when
    every vertex index fits a uint16 (the snapshot has <= 65535 vertices)
    the sweeps read 2-byte target copies instead of the snapshot's int64
    arrays — a 4x cut in edge-pass traffic. The copies are cached on the
    snapshot itself: snapshots are immutable and shared across the many
    waves of a batch, while this module may see a different snapshot
    after every update epoch.

    The cache entry is keyed by ``(segment_token, pid)`` rather than bare
    object identity: a snapshot that crosses a fork (or is rebuilt from a
    shared-memory segment in a spawned worker) carries the parent's cached
    attribute with it, and the worker must rebuild its own copies instead
    of trusting a view whose token belongs to another process's epoch.
    """
    token = (getattr(csr, "segment_token", None), os.getpid())
    state = getattr(csr, "_bit_targets_state", None)
    if state is not None and state[0] == token:
        return state[1]
    if csr.num_vertices > int(np.iinfo(np.uint16).max):
        return csr.out_targets, csr.in_targets
    cached = (
        csr.out_targets.astype(np.uint16),
        csr.in_targets.astype(np.uint16),
    )
    try:
        csr._bit_targets_state = (token, cached)
    except AttributeError:  # pragma: no cover - frozen/slots snapshot stand-in
        pass
    return cached


@dataclass(frozen=True)
class BitSweepStats:
    """What one kernel call did (for counters and cost models)."""

    #: Queries packed into the call.
    lanes: int
    #: uint64 word-groups the lanes occupied.
    words: int
    #: Frontier expansions executed (forward + reverse, all sweeps).
    layers: int
    #: CSR edge slots gathered across all layers.
    edge_accesses: int
    #: Scratch fills the call took (1 unless ``words`` outgrew the
    #: scratch ceiling).
    sweeps: int

    @property
    def occupancy(self) -> float:
        """Fraction of seeded word bits that carried a live query."""
        return self.lanes / (self.words * WORD_BITS) if self.words else 0.0


class _Scratch:
    """The process's one pair of label blocks, lock-held for a kernel call.

    Label state is the kernel's only O(n) memory. One shared pair, zeroed
    by touched rows on the way out of every sweep, keeps a serving
    process's resident set flat (per-thread or per-call blocks read
    190-194 MiB on ``batch_search`` against 171-172 with this pair).
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.label_f = self.label_r = np.zeros(0, dtype=np.uint64)

    def blocks(self, rows: int):
        """Both all-zero blocks, at least ``rows`` long (call lock-held)."""
        if len(self.label_f) < rows:
            self.label_f = np.zeros(rows, dtype=np.uint64)
            self.label_r = np.zeros(rows, dtype=np.uint64)
        return self.label_f, self.label_r


_scratch: Optional[_Scratch] = None


def _process_scratch() -> _Scratch:
    """This pid's scratch. A forked child sees its parent's object — maybe
    with the lock held by a thread that does not exist on this side — so
    a pid mismatch builds a fresh pair. Two threads racing the very first
    call may each build one; the loser's is garbage after its sweep."""
    global _scratch
    scratch = _scratch
    if scratch is None or scratch.pid != os.getpid():
        scratch = _scratch = _Scratch()
    return scratch


class _Tally:
    """Layer and edge accounting shared by every sweep of a kernel call."""

    __slots__ = ("budget", "layers", "accesses", "charged", "sweeps")

    def __init__(self, budget: Optional[Budget]) -> None:
        self.budget = budget
        self.layers = self.accesses = self.charged = self.sweeps = 0

    def checkpoint(self) -> None:
        if self.budget is not None:
            uncharged = self.accesses - self.charged
            self.charged = self.accesses
            self.budget.checkpoint(uncharged)


def _merge(keys, words):
    """OR together the ``words`` that share a key: (sorted keys, merged).

    Sort + ``reduceat``, although ``np.bitwise_or.at`` is the cheaper
    OR on numpy 2.4 (20-31 us against 35-57 for this merge at 2 000
    keys): the frontier must come out as sorted unique rows, which
    :func:`_group_or`'s cuts and :meth:`_Side.alone`'s slices rely on,
    so the sort is paid either way (a ``ufunc.at`` scatter for the
    per-group ``adv`` alone showed no resolvable gain on 1024-pair
    frames). numpy radix-sorts only <= 16-bit keys (``stable``); its
    wider stable sort is a merge sort ~4x slower than the default
    introsort, and OR does not care about the order of ties.
    """
    order = np.argsort(keys, kind="stable" if keys.itemsize <= 2 else None)
    keys = keys[order]
    head = np.empty(len(keys), dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    bounds = np.flatnonzero(head)
    return keys[bounds], np.bitwise_or.reduceat(words[order], bounds)


def _group_or(bits, rows, n: int, groups: int):
    """Per-group OR of ``bits`` over sorted ``rows``, as a ``(groups,)``
    array: ``reduceat`` at the first row of every group that has one."""
    if groups == 1:
        return np.bitwise_or.reduce(bits, keepdims=True)
    out = np.zeros(groups, dtype=np.uint64)
    if len(rows):
        cuts = np.searchsorted(rows, np.arange(groups + 1) * n)
        present = np.flatnonzero(cuts[1:] != cuts[:-1])
        out[present] = np.bitwise_or.reduceat(bits, cuts[present])
    return out


class _Side:
    """One direction of a sweep: its CSR arrays, label block and frontier."""

    __slots__ = (
        "offsets", "targets", "label", "base", "touched", "masked",
        "rows", "delta", "adv", "groups", "lift", "starts", "counts", "cost",
    )

    def __init__(self, offsets, targets, label, base: int, touched: list):
        self.offsets, self.targets, self.label = offsets, targets, label
        #: Scratch row of ``label[0]`` (``touched`` holds scratch rows).
        self.base, self.touched = base, touched
        #: The ``pending`` epoch the delta was last masked at.
        self.masked = 0

    def advance(self, rows, delta, n: int, groups: int) -> None:
        """Install a frontier — sorted rows plus the lanes each gained
        last layer — and cost its next expansion. The adjacency bounds
        are kept: the expansion that follows gathers with them."""
        self.rows, self.delta = rows, delta
        if groups == 1:
            verts = rows
        else:
            # (floor_divide by a scalar is ~4x cheaper than divmod)
            self.groups = rows // n
            self.lift = self.groups * n
            verts = rows - self.lift
        self.starts = self.offsets[verts]
        self.counts = self.offsets[verts + 1] - self.starts
        self.cost = int(self.counts.sum())

    def mask(self, pending, n: int, groups: int) -> None:
        """Drop resolved lanes from the delta, and rows left with none."""
        delta = self.delta
        delta &= pending[0] if groups == 1 else pending[self.groups]
        live = delta != 0
        if not live.all():
            self.advance(self.rows[live], delta[live], n, groups)

    def write(self, rows, words) -> None:
        self.label[rows] = words
        base = self.base
        self.touched.append(rows.astype(np.int64) + base if base else rows)

    def wipe(self) -> None:
        """Zero every row this side (or a group split off it) wrote."""
        if self.touched:
            self.label[np.concatenate(self.touched)] = 0

    def alone(self, group: int, n: int) -> "_Side":
        """Word-group ``group`` of this side as a one-word side over its
        own contiguous ``(n,)`` label block."""
        lo = group * n
        side = _Side(
            self.offsets, self.targets, self.label[lo : lo + n],
            self.base + lo, self.touched,
        )
        a, b = np.searchsorted(self.rows, (lo, lo + n))
        side.advance(self.rows[a:b] - lo, self.delta[a:b], n, 1)
        side.adv = self.adv[group : group + 1]
        return side


def _sweep(n, groups, fwd, rev, pending, result, prefer_forward, tally, epoch=0):
    """Run ``groups`` word-groups of lanes to resolution in lockstep.

    ``pending`` and ``result`` are ``(groups,)`` and updated in place: a
    lane leaves ``pending`` only decided (a meet sets its ``result`` bit,
    a lane missing from either side's ``adv`` is a negative), so both are
    exact whenever a checkpoint raises.
    """
    if not pending.any():
        return  # every lane met at its seed
    while True:
        tally.checkpoint()
        # Masking is lazy: a delta needs it only if ``pending`` shrank
        # since it was last masked. Keeping both frontiers pruned keeps
        # the direction estimate honest — stale rows inflate one side.
        if fwd.masked != epoch:
            fwd.mask(pending, n, groups)
            fwd.masked = epoch
        if rev.masked != epoch:
            rev.mask(pending, n, groups)
            rev.masked = epoch
        live = pending & fwd.adv & rev.adv
        if (live != pending).any():
            pending[:] = live
            epoch += 1
            if not live.any():
                return  # a side exhausted every remaining lane: negatives
        forward = fwd.cost < rev.cost or (fwd.cost == rev.cost and prefer_forward)
        side, other = (fwd, rev) if forward else (rev, fwd)
        live_groups = int(np.count_nonzero(pending))
        if groups > 1 and side.cost > HEAVY_GROUP_EDGES * live_groups:
            # Wide only pays while layers are light (see the module
            # docstring): from here each group finishes alone.
            for group in np.flatnonzero(pending).tolist():
                _sweep(
                    n, 1, fwd.alone(group, n), rev.alone(group, n),
                    pending[group : group + 1], result[group : group + 1],
                    prefer_forward, tally, epoch=1,
                )
            return
        tally.layers += 1
        tally.accesses += side.cost
        if side.cost == 0:
            rows, new_bits = side.rows[:0], side.delta[:0]
        else:
            counts = side.counts
            ends = np.cumsum(counts)
            slots = np.arange(side.cost, dtype=np.int64)
            slots += np.repeat(side.starts - (ends - counts), counts)
            keys = side.targets[slots]
            if groups > 1:
                keys = keys + np.repeat(side.lift, counts)
            rows, merged = _merge(keys, np.repeat(side.delta, counts))
            # Meet-test straight off the merge, before the label update:
            # resolved lanes re-meet here (labels are never masked), hence
            # ``& pending``. When every remaining lane meets — the common
            # fate of the last, largest layer — the update is skipped.
            hit = merged & other.label[rows]
            if hit.any():
                met = _group_or(hit, rows, n, groups) & pending
                if met.any():
                    result |= met
                    pending &= ~met
                    epoch += 1
                    if not pending.any():
                        return
            seen = side.label[rows]
            new_bits = merged & ~seen
            gained = new_bits != 0
            if not gained.all():
                rows, new_bits, seen = rows[gained], new_bits[gained], seen[gained]
            if len(rows):
                side.write(rows, seen | new_bits)
        # The fresh delta's lanes are a subset of the old one's, so it
        # inherits the side's masked-at epoch.
        side.adv = _group_or(new_bits, rows, n, groups)
        side.advance(rows, new_bits, n, groups)


def csr_bit_bibfs(
    csr: "CSRSnapshot",
    pairs: Sequence[Tuple[int, int]],
    *,
    budget: Optional[Budget] = None,
    lead: str = "forward",
) -> Tuple[List[bool], BitSweepStats]:
    """Answer every ``(source, target)`` pair, a frame at a sweep.

    ``pairs`` is a sequence of id pairs or a ``(lanes, 2)`` int64 id
    array (what :func:`~repro.service.batcher.pack_waves` packs from a
    snapshot). Every endpoint must exist in the snapshot (the batch
    planner's pre-filter guarantees this; it also drains ``s == t``
    pairs, which are nevertheless handled here). ``lead`` breaks the
    direction tie when both frontiers cost the same; otherwise every
    layer expands the side whose live frontier has the smaller adjacency
    volume.

    Returns ``(answers, stats)`` with ``answers[q]`` the verdict for
    ``pairs[q]``. Raises :class:`~repro.core.budget.BudgetExceeded` at a
    layer boundary when the budget expires, with the lanes already
    decided attached as ``exc.decided`` (``answers``-shaped, ``None``
    where undecided): the serving engine keeps those and reroutes the
    rest to the scalar path, whose degraded stage owns partial answers.
    """
    _maybe_fault("csr_bit_bibfs")

    lanes = len(pairs)
    if lanes == 0:
        return [], BitSweepStats(0, 0, 0, 0, 0)
    n = csr.num_vertices
    words = words_for(lanes)
    if isinstance(pairs, np.ndarray):
        src_idx = csr.indices_of(pairs[:, 0])
        tgt_idx = csr.indices_of(pairs[:, 1])
    else:
        src_idx = csr.indices_of([s for s, _ in pairs])
        tgt_idx = csr.indices_of([t for _, t in pairs])
    lane = np.arange(lanes, dtype=np.int64)
    lane_word = lane >> 6
    lane_bit = np.uint64(1) << (lane & 63).astype(np.uint64)

    def per_lane(group_words) -> List[bool]:
        """Each lane's bit of a ``(words,)`` array."""
        return ((group_words[lane_word] & lane_bit) != 0).tolist()

    pending = np.zeros(words, dtype=np.uint64)
    np.bitwise_or.at(pending, lane_word, lane_bit)
    result = np.zeros(words, dtype=np.uint64)
    # Narrow (uint16) target copies double as radix-sortable keys.
    out_tgt, in_tgt = _sweep_targets(csr)
    prefer_forward = lead != "reverse"
    tally = _Tally(budget)
    scratch = _process_scratch()
    with scratch.lock:
        span = _sweep_span(n)
        label_f, label_r = scratch.blocks(min(span, words) * n)
        try:
            for lo in range(0, words, span):
                groups = min(span, words - lo)
                sel = slice(lo * WORD_BITS, (lo + groups) * WORD_BITS)
                lift = (lane_word[sel] - lo) * n
                tally.sweeps += 1
                fwd = _Side(csr.out_offsets, out_tgt, label_f, 0, [])
                rev = _Side(csr.in_offsets, in_tgt, label_r, 0, [])
                try:
                    for side, idx in ((fwd, src_idx), (rev, tgt_idx)):
                        rows, bits = _merge(lift + idx[sel], lane_bit[sel])
                        side.write(rows, bits)
                        side.adv = _group_or(bits, rows, n, groups)
                        side.advance(rows, bits, n, groups)
                    # Seed meets: s == t, the one meet no expansion sees.
                    met = _group_or(
                        fwd.delta & label_r[fwd.rows], fwd.rows, n, groups
                    )
                    result[lo : lo + groups] = met
                    pending[lo : lo + groups] &= ~met
                    _sweep(
                        n, groups, fwd, rev, pending[lo : lo + groups],
                        result[lo : lo + groups], prefer_forward, tally,
                        epoch=int(met.any()),
                    )
                finally:
                    fwd.wipe()
                    rev.wipe()
            tally.checkpoint()
        except BudgetExceeded as exc:
            exc.decided = [
                None if undecided else verdict
                for verdict, undecided in zip(per_lane(result), per_lane(pending))
            ]
            raise

    stats = BitSweepStats(lanes, words, tally.layers, tally.accesses, tally.sweeps)
    return per_lane(result), stats


def csr_bit_reach(
    csr: "CSRSnapshot",
    seeds: Iterable[Tuple[int, int]],
    probes: Iterable[int],
    *,
    forward: bool = True,
    budget: Optional[Budget] = None,
) -> Tuple[Dict[int, int], BitSweepStats]:
    """Bit-parallel multi-source closure with per-lane seed masks.

    ``seeds`` are ``(vertex_id, lane_mask)`` pairs: bit ``q`` of a mask
    marks the vertex as a source for lane ``q`` (one uint64 word, so at
    most 64 lanes). The sweep runs the *one-sided* closure — forward along
    out-edges when ``forward``, along in-edges otherwise — to fixpoint,
    then reports ``{probe_id: mask}`` for every probe vertex whose label
    is non-zero. This is the shard worker's scatter–gather primitive: the
    router seeds a shard's entry vertices, probes its boundary vertices
    plus any in-shard query targets, and joins the returned masks across
    shards through the condensation DAG.

    The closure is additive over seed sets (``reach(A ∪ B) = reach(A) ∪
    reach(B)``), so a router re-entering a shard in a later round only
    needs to send seeds it has not sent before — workers keep no state
    between calls. All seed and probe vertices must exist in the snapshot
    (``KeyError`` otherwise). Budget semantics match
    :func:`csr_bit_bibfs`: checkpoints at layer boundaries, nothing kept
    on :class:`~repro.core.budget.BudgetExceeded`.
    """
    _maybe_fault("csr_bit_reach")

    seed_list = [(csr.index_of(v), m) for v, m in seeds if m]
    probe_list = list(probes)
    n = csr.num_vertices
    label = np.zeros(n, dtype=np.uint64)
    frontier = np.empty(0, dtype=np.int64)
    delta = label[:0]
    if seed_list:
        frontier, delta = _merge(
            np.asarray([i for i, _ in seed_list], dtype=np.int64),
            np.asarray([m for _, m in seed_list], dtype=np.uint64),
        )
        label[frontier] = delta

    lanes = int(np.bitwise_or.reduce(delta)).bit_count() if len(delta) else 0
    offsets = csr.out_offsets if forward else csr.in_offsets
    out_tgt, in_tgt = _sweep_targets(csr)
    targets = out_tgt if forward else in_tgt

    layers = 0
    accesses = 0
    charged = 0
    while len(frontier):
        if budget is not None:
            budget.checkpoint(accesses - charged)
            charged = accesses
        layers += 1
        counts = offsets[frontier + 1] - offsets[frontier]
        recv = _gather(offsets, targets, frontier)
        accesses += len(recv)
        if len(recv) == 0:
            break
        rows, merged = _merge(recv, np.repeat(delta, counts))
        seen = np.take(label, rows)
        new_bits = merged & ~seen
        gained = new_bits != 0
        if not gained.all():
            rows, new_bits = rows[gained], new_bits[gained]
            seen = seen[gained]
        if len(rows):
            label[rows] = seen | new_bits
        frontier = rows.astype(np.int64)
        delta = new_bits

    if budget is not None:
        budget.checkpoint(accesses - charged)

    out: Dict[int, int] = {}
    for v in probe_list:
        mask = int(label[csr.index_of(v)])
        if mask:
            out[v] = mask
    stats = BitSweepStats(lanes, 1, layers, accesses, 1)
    return out, stats
