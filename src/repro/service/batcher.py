"""Service-side batch planning for bit-parallel query execution.

O'Reach's serving discipline — drain a batch with O(1) observations
before any search runs — meets DBL's word packing here: the planner takes
a raw list of ``(s, t)`` pairs and produces what
:func:`~repro.graph.bitsearch.csr_bit_bibfs` sweeps:

1. **dedup** — repeated pairs occupy one lane and fan back out;
2. **pre-filter** — the fast-path pruner and the versioned cache (both
   injected as callables so the planner owns no locks) resolve pairs
   without touching the kernels; trivial verdicts (``s == t``, a missing
   endpoint) are additionally checked here so no unresolvable pair can
   ever reach a kernel, even with the pruner stage erroring or absent;
   a walk that is wide enough takes these rungs over endpoint arrays
   instead of a pair at a time (the columnar body, below);
3. **wave packing** — surviving pairs are sorted by endpoints so queries
   sharing sources or targets land in the same word-group (their label
   bits share rows and travel together). The engine's wave rung packs
   its survivors as **one** wave whatever their count: the kernel keeps
   one label word per ``(word-group, vertex)`` row that carries a live
   lane, so a frame costs one set of numpy calls per layer, and it
   splits into per-group work by itself once layers turn
   bandwidth-bound (the rule and its measurement are in
   :mod:`repro.graph.bitsearch`). ``max_wave_lanes`` remains for callers
   that want a batch cut into several kernel calls (the per-layer
   benchmark times a 64-lane wave);
4. **orientation** — each wave gets a ``lead`` hint from degree stats
   (total out-volume of its sources vs. in-volume of its targets); the
   kernel re-evaluates the cheaper side per layer, the hint only breaks
   ties. Given the snapshot the waves will sweep, :func:`pack_waves`
   sorts with one ``lexsort``, reads the volumes off the CSR offsets and
   hands the kernel each wave's id array.

:class:`BatchCostModel` is the cutover: numpy dispatch per sweep
layer plus the ``|V'| + |E'|``-shaped account the per-query cost model
(Alg. 6) uses, per word-group, against the batch's expected scalar cost
from live engine-stage latency.

The engine calls :func:`plan_batch` once per ladder walk, at every width
(a point query is a batch of one): it *is* the index rungs. The rung
order is stated once, in :mod:`repro.service.engine`'s module docstring
— dedup, trivial verdicts, fast path, cache, labels here; then the
deadline pre-check; then the search rungs (shard fleet, these waves,
engine, degraded). The cache probe sits here, ahead of the shard rung,
because a pair the fleet had to *search* would otherwise be searched
again on every recurrence; and the planner stays the single place that
guarantees trivial-verdict safety (``s == t``, missing endpoints) for
whatever any later rung receives.

The columnar body
-----------------
O'Reach's observations and DBL's labels are per-vertex table lookups, so
at width they are gathers. Handed :class:`IndexColumns`,
:func:`plan_batch` runs the same rungs in the same order over one
``int64`` endpoint array pair: trivial verdicts and the fast path as one
:meth:`~repro.service.fastpath.FastPathPruner.check_many` gather (rule
names and first-match order are :meth:`check`'s), the cache as one
:meth:`~repro.service.cache.VersionedQueryCache.get_many` under one lock
hold, the labels as the :meth:`~repro.graph.labels.LabelIndex.query_many`
gather they already were. Verdicts, ``via`` / ``detail`` and every
counter are those of the scalar body; what differs is containment
grain — a rung that raises abstains on the walk, not on one pair — and
the cache's LRU touch order (still arrival order, but all fast-path
verdicts are taken first). An id that no ``int64`` holds is in no
snapshot: such a pair is answered ``missing-endpoint`` (``identity``)
before the arrays are built.

Which body runs is decided by the engine from two things it observes,
neither of them settable: the walk is at least
:data:`COLUMNAR_MIN_PAIRS` wide, and the pruner has (or can build from
an already-frozen snapshot) its array view of the walk's version.
``COLUMNAR_MIN_PAIRS = 48`` is the narrowest measured width at which
the columnar body wins on both kinds of walk (the whole index pass,
median us of 600 alternating calls, 50k-vertex benchmark graphs):

=====  ==========================  ==========================
width  every rung abstains (pool)  fast path answers (zipf)
       scalar / columnar           scalar / columnar
=====  ==========================  ==========================
16     151 / 104                   65 / 87
32     248 / 120                   119 / 125
48     352 / 136                   186 / 169
64     464 / 151                   293 / 253
128    785 / 198                   679 / 507
1024   8 600 / 1 500               —
=====  ==========================  ==========================

Abstaining pairs cross over below 16 (a fixed ~90 us of numpy dispatch
against ~7 us a pair); answered pairs pay the same per-pair outcome
either way and cross over between 32 and 48.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bitsearch import sweeps_for, words_for
from repro.graph.digraph import DynamicDiGraph
from repro.service.fastpath import RULE_ANSWERS, RULES

Pair = Tuple[int, int]

#: Layers a sweep is expected to run (see :class:`BatchCostModel`).
SWEEP_LAYERS = 18

#: ``check(s, t)`` -> ``(answer, rule)`` or ``None`` (the pruner surface).
CheckFn = Callable[[int, int], Optional[Tuple[bool, str]]]
#: ``cache_get(s, t)`` -> cached answer or ``None``.
CacheFn = Callable[[int, int], Optional[bool]]
#: ``label_filter(pairs)`` -> per-pair verdicts aligned with ``pairs``
#: (``>0`` exact positive, ``<0`` exact negative, ``0`` abstain), or
#: ``None`` when the label tier is unavailable/erroring. One vectorized
#: gather-and-AND over the DL/BL matrices — the whole point is that it
#: costs one call for the entire batch (see
#: :meth:`repro.graph.labels.LabelIndex.query_many`).
LabelFilterFn = Callable[[Sequence[Pair]], Optional[Sequence[int]]]


#: Walks at least this wide take the columnar index body when they are
#: handed :class:`IndexColumns`. Measured, not a knob: see the module
#: docstring.
COLUMNAR_MIN_PAIRS = 48


class IndexColumns(NamedTuple):
    """The index rungs in array form, for one walk at one version.

    Each rung takes aligned ``int64`` endpoint arrays (the cache takes
    the pair list) and answers for all of them at once; ``None`` in a
    rung's place — or returned by it — means it sits this walk out, as a
    ``None`` callable does in the scalar body.
    """

    #: The version's frozen snapshot; its id table is the membership
    #: test behind ``missing-endpoint`` when the fast path is out.
    csr: object
    #: ``FastPathPruner.check_many``: rule codes, ``-1`` abstains.
    check_many: Optional[Callable]
    #: ``VersionedQueryCache.get_many``: answers aligned with the pairs.
    get_many: Optional[Callable]
    #: ``LabelIndex.query_many``: ``>0`` / ``<0`` / ``0`` verdicts.
    query_many: Optional[Callable]


@dataclass(frozen=True)
class Wave:
    """One kernel call: the endpoint-sorted pairs it sweeps."""

    pairs: List[Pair]
    #: First-layer direction hint (``"forward"`` | ``"reverse"``).
    lead: str
    #: The same pairs as a ``(lanes, 2)`` int64 id array, when the wave
    #: was packed from arrays: what the kernel reads in place of ``pairs``.
    ids: object = field(default=None, compare=False, repr=False)

    @property
    def words(self) -> int:
        return words_for(len(self.pairs))


@dataclass
class BatchPlan:
    """What the planner decided for one batch."""

    #: Distinct pairs resolved without search: pair -> (answer, via, detail)
    #: with ``via`` one of ``"fastpath"`` | ``"labels"`` | ``"cache"``.
    resolved: Dict[Pair, Tuple[bool, str, str]] = field(default_factory=dict)
    #: Distinct pairs that need a search, in wave order.
    pending: List[Pair] = field(default_factory=list)
    #: Kernel waves covering exactly ``pending``.
    waves: List[Wave] = field(default_factory=list)
    #: Duplicate occurrences coalesced away (len(queries) - distinct).
    dedup_saved: int = 0
    #: Pairs the vectorized label prefilter answered (subset of resolved).
    label_pos: int = 0
    label_neg: int = 0

    @property
    def prefilter_hits(self) -> int:
        """Pairs the per-pair (fastpath/cache) prefilter resolved — label
        verdicts are counted separately as ``label_pos``/``label_neg``."""
        return len(self.resolved) - self.label_pos - self.label_neg


#: What the fast path resolves a pair to, by rule code.
_BY_RULE = tuple(zip(RULE_ANSWERS, ("fastpath",) * len(RULES), RULES))
_IDENTITY, _MISSING = _BY_RULE[:2]


def _fits_int64(value) -> bool:
    return isinstance(value, int) and -(1 << 63) <= value < (1 << 63)


def plan_batch(
    queries: Sequence[Pair],
    *,
    graph: DynamicDiGraph,
    check: Optional[CheckFn] = None,
    cache_get: Optional[CacheFn] = None,
    label_filter: Optional[LabelFilterFn] = None,
    max_wave_lanes: int = 64,
    pack: bool = True,
    columns: Optional[IndexColumns] = None,
) -> BatchPlan:
    """Dedup, pre-filter, and pack one batch into kernel waves.

    ``label_filter`` runs *after* the per-pair ladder over everything it
    left pending — one vectorized gather over the label matrices kills
    exact positives and negatives before any wave is packed.

    ``columns`` selects the columnar body: the same rungs in the same
    order over endpoint arrays (``check`` / ``cache_get`` /
    ``label_filter`` are then not called). The caller passes it only for
    a walk at least :data:`COLUMNAR_MIN_PAIRS` wide.

    ``pack=False`` stops after the filters: ``pending`` stays in arrival
    order and ``waves`` empty. The engine's walk plans this way — only
    its wave rung packs (:func:`pack_waves`), over what the rungs in
    between left, so pairs an earlier search rung answers are never
    sorted or degree-probed.
    """
    if max_wave_lanes < 1:
        raise ValueError("max_wave_lanes must be positive")
    plan = BatchPlan()
    distinct = list(dict.fromkeys(queries))
    plan.dedup_saved = len(queries) - len(distinct)
    if columns is not None:
        _index_columns(plan, distinct, columns)
    else:
        _index_pairs(plan, distinct, graph, check, cache_get, label_filter)
    if pack:
        plan.pending, plan.waves = pack_waves(
            plan.pending,
            graph=graph,
            max_wave_lanes=max_wave_lanes,
            csr=None if columns is None else columns.csr,
        )
    return plan


def _index_pairs(
    plan: BatchPlan,
    distinct: List[Pair],
    graph: DynamicDiGraph,
    check: Optional[CheckFn],
    cache_get: Optional[CacheFn],
    label_filter: Optional[LabelFilterFn],
) -> None:
    """The index rungs, a pair at a time (the scalar body)."""
    resolved, pending = plan.resolved, plan.pending
    for pair in distinct:
        s, t = pair
        # Trivial verdicts first: these duplicate the pruner's own rules,
        # but the planner must guarantee them regardless of pruner health —
        # the kernels index endpoints into the CSR unconditionally.
        if s == t:
            resolved[pair] = _IDENTITY
            continue
        if s not in graph or t not in graph:
            resolved[pair] = _MISSING
            continue
        observed = check(s, t) if check is not None else None
        if observed is not None:
            answer, rule = observed
            resolved[pair] = (answer, "fastpath", rule)
            continue
        cached = cache_get(s, t) if cache_get is not None else None
        if cached is not None:
            resolved[pair] = (cached, "cache", "")
            continue
        pending.append(pair)

    if label_filter is not None and pending:
        verdicts = label_filter(pending)
        if verdicts is not None:
            plan.pending = _label_verdicts(plan, pending, verdicts)


def _label_verdicts(plan: BatchPlan, pending: List[Pair], verdicts) -> List[Pair]:
    """Book the label rung's verdicts; the pairs it abstained on."""
    survivors: List[Pair] = []
    for pair, verdict in zip(pending, verdicts):
        if verdict > 0:
            plan.resolved[pair] = (True, "labels", "label-pos")
            plan.label_pos += 1
        elif verdict < 0:
            plan.resolved[pair] = (False, "labels", "label-neg")
            plan.label_neg += 1
        else:
            survivors.append(pair)
    return survivors


def _index_columns(
    plan: BatchPlan, distinct: List[Pair], columns: IndexColumns
) -> None:
    """The index rungs over endpoint arrays (the columnar body).

    Same rungs, same order, same verdicts as :func:`_index_pairs`: the
    fast path is one gather whose rule codes carry the trivial verdicts
    too (computed here from the snapshot's id table when the pruner is
    out, so they hold whatever its health), the cache one locked pass,
    the labels one gather over what those two left.
    """
    resolved = plan.resolved
    flat = chain.from_iterable(distinct)
    try:
        ids = np.fromiter(flat, dtype=np.int64, count=2 * len(distinct))
    except (OverflowError, TypeError, ValueError):
        # An id no int64 holds is in no snapshot: answer its pairs here.
        kept = []
        for pair in distinct:
            if _fits_int64(pair[0]) and _fits_int64(pair[1]):
                kept.append(pair)
            else:
                resolved[pair] = _IDENTITY if pair[0] == pair[1] else _MISSING
        distinct = kept
        ids = np.array(distinct, dtype=np.int64)
    source, target = ids.reshape(-1, 2).T.copy()

    rule = None
    if columns.check_many is not None:
        rule = columns.check_many(source, target)
    if rule is None:
        rule = np.full(len(source), -1, dtype=np.int8)
        known = columns.csr.rows_of(source)[1] & columns.csr.rows_of(target)[1]
        rule[~known] = 1
        rule[source == target] = 0
    live = np.flatnonzero(rule < 0)
    if len(live) < len(distinct):
        hit = np.flatnonzero(rule >= 0)
        for at, code in zip(hit.tolist(), rule[hit].tolist()):
            resolved[distinct[at]] = _BY_RULE[code]
        distinct = [distinct[at] for at in live.tolist()]

    cached = None
    if columns.get_many is not None and distinct:
        cached = columns.get_many(distinct)
    if cached is not None and cached.count(None) < len(cached):
        missed = [at for at, answer in enumerate(cached) if answer is None]
        for pair, answer in zip(distinct, cached):
            if answer is not None:
                resolved[pair] = (answer, "cache", "")
        distinct = [distinct[at] for at in missed]
        live = live[missed]

    verdicts = None
    if columns.query_many is not None and distinct:
        verdicts = columns.query_many(source[live], target[live])
    if verdicts is not None and verdicts.any():
        distinct = _label_verdicts(plan, distinct, verdicts.tolist())
    plan.pending = distinct


def pack_waves(
    pairs: Sequence[Pair],
    *,
    graph: DynamicDiGraph,
    max_wave_lanes: int = 64,
    csr=None,
) -> Tuple[List[Pair], List[Wave]]:
    """Pack an already-filtered pair list into kernel waves.

    Endpoint-sorted packing: pairs sharing a source (then target) sit in
    adjacent lanes, so their bits share words and frontier rows. Returns
    the sorted pending list and the waves covering exactly that list —
    the tail of :func:`plan_batch`, and what the engine's wave rung calls
    on its survivors.

    Each wave's ``lead`` is the side whose seeds fan out less — the
    frontier-balance rule the kernels apply per layer, evaluated on the
    only stats available before any frontier exists: total out-volume of
    its sources against in-volume of its targets. With ``csr`` (the
    snapshot the waves will sweep; every endpoint must be in it) the
    sort is one ``lexsort``, the volumes come from its offsets and each
    wave carries its id array for the kernel; without, the same packing
    from ``sorted`` and the graph's degree calls.
    """
    if csr is None or not pairs:
        pending = sorted(pairs)
        waves = []
        for start in range(0, len(pending), max_wave_lanes):
            chunk = pending[start : start + max_wave_lanes]
            out_volume = sum(graph.out_degree(s) for s, _ in chunk)
            in_volume = sum(graph.in_degree(t) for _, t in chunk)
            lead = "forward" if out_volume <= in_volume else "reverse"
            waves.append(Wave(chunk, lead))
        return pending, waves
    flat = chain.from_iterable(pairs)
    ids = np.fromiter(flat, dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)
    ids = ids[np.lexsort((ids[:, 1], ids[:, 0]))]
    pending = list(zip(ids[:, 0].tolist(), ids[:, 1].tolist()))
    starts = np.arange(0, len(ids), max_wave_lanes)

    def volume(offsets, endpoints):
        rows = csr.indices_of(endpoints)
        return np.add.reduceat(offsets[rows + 1] - offsets[rows], starts)

    forward = volume(csr.out_offsets, ids[:, 0]) <= volume(csr.in_offsets, ids[:, 1])
    waves = [
        Wave(
            pending[start : start + max_wave_lanes],
            "forward" if lead_forward else "reverse",
            ids[start : start + max_wave_lanes],
        )
        for start, lead_forward in zip(starts.tolist(), forward.tolist())
    ]
    return pending, waves


@dataclass(frozen=True)
class BatchCostModel:
    """The scalar-vs-bit-parallel cutover, applied at every width.

    A kernel call pays numpy dispatch once per layer of each sweep,
    whatever the sweep's width, and memory bandwidth per word-group for
    the part of the graph its lanes explore — bounded by ``|V| + |E|``,
    the BiBFS account of Alg. 6. The scalar alternative costs the batch's
    pending count times the live engine-stage mean latency — the same
    live signal admission control already uses — so the cutover
    self-calibrates as the engine speeds up or slows down.

    The constants were fitted on the two 50k-vertex benchmark graphs
    (``benchmarks/e2e/inputs.py``: sparse ``|V|+|E|`` = 203k, dense 697k)
    from kernel calls of 3 / 64 / 256 / 1024 lanes:

    * a sweep ran 17-18 layers on the searchable pool at every width
      (12-36 on uniform pairs), at 55-110 us a layer up to 64 lanes and
      ~200 us at ten word-groups: :data:`SWEEP_LAYERS` x
      ``layer_dispatch_s`` per sweep, and a 1024-pair frame on a 50k
      graph is one sweep (:func:`~repro.graph.bitsearch.sweeps_for`);
    * 1024 uniform pairs cost 53.2 ms on the dense graph and 16.6 ms on
      the sparse one (16 word-groups; 256 lanes: 13.5 and 4.4 ms), i.e.
      4.0-4.8 ns per word-group per vertex-or-edge once dispatch is
      taken out: ``word_edge_s``. It is an upper bound for pairs with
      small closures (the pool's negatives: 7.3 ms, predicted 18);
    * a scalar batch of pool pairs cost 0.80 ms a pair end to end
      (engine-stage mean 1.4 ms, median 0.5) and the dense graph's hard
      pairs 0.46-0.79 ms: ``default_scalar_s``.
    """

    #: Seconds per (word-group x (vertex + edge)) of sweep bandwidth.
    word_edge_s: float = 4.5e-9
    #: Seconds of numpy dispatch per sweep layer.
    layer_dispatch_s: float = 1e-4
    #: Scalar per-query estimate before any engine latency is observed.
    default_scalar_s: float = 8e-4

    def sweep_seconds(self, num_vertices: int, num_edges: int, lanes: int) -> float:
        """Predicted cost of one kernel call over ``lanes`` pairs."""
        return (
            sweeps_for(lanes, num_vertices) * SWEEP_LAYERS * self.layer_dispatch_s
            + words_for(lanes) * (num_vertices + num_edges) * self.word_edge_s
        )

    def scalar_seconds(self, lanes: int, engine_mean_s: float) -> float:
        """Predicted cost of answering ``lanes`` pairs one at a time."""
        per_query = engine_mean_s if engine_mean_s > 0 else self.default_scalar_s
        return lanes * per_query

    def prefer_bitparallel(
        self,
        lanes: int,
        num_vertices: int,
        num_edges: int,
        engine_mean_s: float,
    ) -> bool:
        if lanes == 0:
            return False
        return self.sweep_seconds(
            num_vertices, num_edges, lanes
        ) <= self.scalar_seconds(lanes, engine_mean_s)
