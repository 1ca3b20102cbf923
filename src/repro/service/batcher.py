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
(a point query is a batch of one): it *is* the index rungs (the rung
order is stated once, in :mod:`repro.service.engine`). It creates the
walk's :class:`~repro.service.outcomes.OutcomeColumns` and books what
the index rungs answer into them. The cache probe sits here, ahead of
the shard rung, because a pair the fleet had to *search* would
otherwise be searched again on every recurrence; and the planner stays
the single place that guarantees trivial-verdict safety (``s == t``,
missing endpoints) for whatever any later rung receives.

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
against ~7 us a pair); answered pairs cross over between 32 and 48.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bitsearch import sweeps_for, words_for
from repro.graph.digraph import DynamicDiGraph
from repro.service.fastpath import RULE_ANSWERS, RULES
from repro.service.outcomes import OutcomeColumns

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
    #: Each lane's position in the list :func:`pack_waves` was given.
    order: object = field(default=None, compare=False, repr=False)

    @property
    def words(self) -> int:
        return words_for(len(self.pairs))


@dataclass
class BatchPlan:
    """What the planner decided for one batch."""

    #: A row per distinct pair: the index rungs' verdicts are booked.
    outcomes: OutcomeColumns
    #: Rows that need a search, in wave order.
    pending_rows: List[int] = field(default_factory=list)
    #: Kernel waves covering exactly the pending rows' pairs.
    waves: List[Wave] = field(default_factory=list)
    #: Duplicate occurrences coalesced away (len(queries) - distinct).
    dedup_saved: int = 0
    #: Fast-path verdicts by rule name (trivial verdicts included).
    rules: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    #: Pairs the vectorized label prefilter answered.
    label_pos: int = 0
    label_neg: int = 0

    @property
    def prefilter_hits(self) -> int:
        """Pairs the fast path or the cache answered (label verdicts are
        counted separately as ``label_pos``/``label_neg``)."""
        return sum(self.rules.values()) + self.cache_hits


#: The fast path's verdict by rule code.
_RULE_VERDICTS = np.array(RULE_ANSWERS, dtype=bool)


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

    ``pack=False`` stops after the filters: ``pending_rows`` stay in arrival
    order and ``waves`` empty. The engine's walk plans this way — only
    its wave rung packs (:func:`pack_waves`), over what the rungs in
    between left, so pairs an earlier search rung answers are never
    sorted or degree-probed.
    """
    if max_wave_lanes < 1:
        raise ValueError("max_wave_lanes must be positive")
    plan = BatchPlan(OutcomeColumns.of_request(queries, graph.version))
    plan.dedup_saved = len(queries) - len(plan.outcomes.pairs)
    if columns is not None:
        _index_columns(plan, columns)
    else:
        _index_pairs(plan, graph, check, cache_get, label_filter)
    if pack:
        rows, pairs = plan.pending_rows, plan.outcomes.pairs
        plan.waves = pack_waves(
            [pairs[row] for row in rows],
            graph=graph,
            max_wave_lanes=max_wave_lanes,
            csr=None if columns is None else columns.csr,
        )
        plan.pending_rows = [rows[at] for wave in plan.waves for at in wave.order]
    return plan


def _index_pairs(
    plan: BatchPlan,
    graph: DynamicDiGraph,
    check: Optional[CheckFn],
    cache_get: Optional[CacheFn],
    label_filter: Optional[LabelFilterFn],
) -> None:
    """The index rungs, a pair at a time (the scalar body)."""
    outcomes, rules, pending = plan.outcomes, plan.rules, plan.pending_rows
    book = outcomes.book
    for row, (s, t) in enumerate(outcomes.pairs):
        # Trivial verdicts first: these duplicate the pruner's own rules,
        # but the planner must guarantee them regardless of pruner health —
        # the kernels index endpoints into the CSR unconditionally.
        if s == t:
            answer, rule = True, "identity"
        elif s not in graph or t not in graph:
            answer, rule = False, "missing-endpoint"
        else:
            observed = check(s, t) if check is not None else None
            if observed is None:
                cached = cache_get(s, t) if cache_get is not None else None
                if cached is None:
                    pending.append(row)
                else:
                    book(row, cached, "cache")
                    plan.cache_hits += 1
                continue
            answer, rule = observed
        book(row, answer, "fastpath", rule)
        rules[rule] = rules.get(rule, 0) + 1

    if label_filter is not None and pending:
        verdicts = label_filter([outcomes.pairs[row] for row in pending])
        if verdicts is not None:
            _label_verdicts(plan, np.array(pending), np.asarray(verdicts))


def _label_verdicts(plan: BatchPlan, rows, verdicts) -> None:
    """Book the label rung's verdicts on ``rows``; the rest stay pending."""
    outcomes = plan.outcomes
    pos, neg = verdicts > 0, verdicts < 0
    outcomes.book_rows(rows[pos], True, outcomes.add_tail("labels", "label-pos"))
    outcomes.book_rows(rows[neg], False, outcomes.add_tail("labels", "label-neg"))
    plan.label_pos += int(pos.sum())
    plan.label_neg += int(neg.sum())
    plan.pending_rows = rows[~(pos | neg)].tolist()


def _book_rules(plan: BatchPlan, rows, codes) -> None:
    """Book fast-path verdicts by rule code, tallied by rule."""
    outcomes = plan.outcomes
    tails = np.array([outcomes.add_tail("fastpath", rule) for rule in RULES])
    outcomes.book_rows(rows, _RULE_VERDICTS[codes], tails[codes])
    for rule, n in zip(RULES, np.bincount(codes, minlength=len(RULES)).tolist()):
        if n:
            plan.rules[rule] = plan.rules.get(rule, 0) + n


def _index_columns(plan: BatchPlan, columns: IndexColumns) -> None:
    """The index rungs over endpoint arrays (the columnar body).

    Same rungs, same order, same verdicts as :func:`_index_pairs`: the
    fast path is one gather whose rule codes carry the trivial verdicts
    too (computed here from the snapshot's id table when the pruner is
    out, so they hold whatever its health) and are booked as one array
    write, the cache one locked pass, the labels one gather over what
    those two left.
    """
    outcomes, pairs = plan.outcomes, plan.outcomes.pairs
    rows = np.arange(len(pairs))
    try:
        ids = np.fromiter(
            chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs)
        )
    except (OverflowError, TypeError, ValueError):
        # An id no int64 holds is in no snapshot: identity or missing-endpoint.
        fits = np.array([
            all(isinstance(v, int) and -(1 << 63) <= v < 1 << 63 for v in pair)
            for pair in pairs
        ])
        _book_rules(plan, rows[~fits], np.array([int(s != t) for s, t in pairs])[~fits])
        rows = rows[fits]
        ids = np.array([pairs[row] for row in rows.tolist()], dtype=np.int64)
    source, target = ids.reshape(-1, 2).T.copy()

    rule = None
    if columns.check_many is not None:
        rule = columns.check_many(source, target)
    if rule is None:
        rule = np.full(len(source), -1, dtype=np.int8)
        known = columns.csr.rows_of(source)[1] & columns.csr.rows_of(target)[1]
        rule[~known] = 1
        rule[source == target] = 0
    hit = rule >= 0
    if hit.any():
        _book_rules(plan, rows[hit], rule[hit])
        live = np.flatnonzero(~hit)
        rows = rows[live]
        source, target = source[live], target[live]

    cached = None
    if columns.get_many is not None and len(rows):
        cached = columns.get_many([pairs[row] for row in rows.tolist()])
    if cached is not None and cached.count(None) < len(cached):
        answers = np.array([bool(answer) for answer in cached])
        missed = np.array([answer is None for answer in cached])
        outcomes.book_rows(rows[~missed], answers[~missed], outcomes.add_tail("cache"))
        plan.cache_hits += len(cached) - int(missed.sum())
        rows = rows[missed]
        source, target = source[missed], target[missed]

    verdicts = None
    if columns.query_many is not None and len(rows):
        verdicts = columns.query_many(source, target)
    if verdicts is not None and verdicts.any():
        _label_verdicts(plan, rows, verdicts)
    else:
        plan.pending_rows = rows.tolist()


def pack_waves(
    pairs: Sequence[Pair],
    *,
    graph: DynamicDiGraph,
    max_wave_lanes: int = 64,
    csr=None,
) -> List[Wave]:
    """Pack an already-filtered pair list into kernel waves.

    Endpoint-sorted packing: pairs sharing a source (then target) sit in
    adjacent lanes, so their bits share words and frontier rows. Returns
    the waves covering exactly ``pairs`` in sorted order — the tail of
    :func:`plan_batch`, and what the engine's wave rung calls on its
    survivors. Each wave's ``order`` says where its lanes stood in
    ``pairs``, so a caller books verdicts back by position.

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
        order = sorted(range(len(pairs)), key=pairs.__getitem__)
        pending = [pairs[at] for at in order]
        waves = []
        for start in range(0, len(pending), max_wave_lanes):
            chunk = pending[start : start + max_wave_lanes]
            out_volume = sum(graph.out_degree(s) for s, _ in chunk)
            in_volume = sum(graph.in_degree(t) for _, t in chunk)
            lead = "forward" if out_volume <= in_volume else "reverse"
            waves.append(Wave(chunk, lead, order=order[start : start + max_wave_lanes]))
        return waves
    flat = chain.from_iterable(pairs)
    ids = np.fromiter(flat, dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)
    order = np.lexsort((ids[:, 1], ids[:, 0]))
    ids = ids[order]
    pending = list(zip(ids[:, 0].tolist(), ids[:, 1].tolist()))
    starts = np.arange(0, len(ids), max_wave_lanes)

    def volume(offsets, endpoints):
        rows = csr.indices_of(endpoints)
        return np.add.reduceat(offsets[rows + 1] - offsets[rows], starts)

    forward = volume(csr.out_offsets, ids[:, 0]) <= volume(csr.in_offsets, ids[:, 1])
    return [
        Wave(
            pending[start : start + max_wave_lanes],
            "forward" if lead_forward else "reverse",
            ids[start : start + max_wave_lanes],
            order[start : start + max_wave_lanes],
        )
        for start, lead_forward in zip(starts.tolist(), forward.tolist())
    ]


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

    Those sweeps ran unpruned. The wave rung now sweeps pruned by
    topological level whenever the pruner has a view of the snapshot
    (:func:`~repro.graph.bitsearch.csr_bit_bibfs`): the pool's frames
    take 10 layers instead of 18 and a quarter of the edges, so for them
    the sweep side is an upper bound (ROADMAP item 8 re-fits it).
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
