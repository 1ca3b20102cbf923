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
   ties.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.bitsearch import sweeps_for, words_for
from repro.graph.digraph import DynamicDiGraph

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


@dataclass(frozen=True)
class Wave:
    """One kernel call: the endpoint-sorted pairs it sweeps."""

    pairs: List[Pair]
    #: First-layer direction hint (``"forward"`` | ``"reverse"``).
    lead: str

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


def _wave_lead(graph: DynamicDiGraph, pairs: Sequence[Pair]) -> str:
    """Pick the wave's opening direction from endpoint degree volume.

    The side whose seeds fan out less is the cheaper first expansion —
    the same frontier-balance rule the kernels apply per layer, evaluated
    on the only stats available before any frontier exists.
    """
    out_volume = 0
    in_volume = 0
    for s, t in pairs:
        out_volume += graph.out_degree(s)
        in_volume += graph.in_degree(t)
    return "forward" if out_volume <= in_volume else "reverse"


def plan_batch(
    queries: Sequence[Pair],
    *,
    graph: DynamicDiGraph,
    check: Optional[CheckFn] = None,
    cache_get: Optional[CacheFn] = None,
    label_filter: Optional[LabelFilterFn] = None,
    max_wave_lanes: int = 64,
    pack: bool = True,
) -> BatchPlan:
    """Dedup, pre-filter, and pack one batch into kernel waves.

    ``label_filter`` runs *after* the per-pair ladder over everything it
    left pending — one vectorized gather over the label matrices kills
    exact positives and negatives before any wave is packed.

    ``pack=False`` stops after the filters: ``pending`` stays in arrival
    order and ``waves`` empty. The engine's walk plans this way — only
    its wave rung packs (:func:`pack_waves`), over what the rungs in
    between left, so pairs an earlier search rung answers are never
    sorted or degree-probed.
    """
    if max_wave_lanes < 1:
        raise ValueError("max_wave_lanes must be positive")
    plan = BatchPlan()
    distinct: List[Pair] = []
    seen = set()
    for pair in queries:
        if pair in seen:
            continue
        seen.add(pair)
        distinct.append(pair)
    plan.dedup_saved = len(queries) - len(distinct)

    for pair in distinct:
        s, t = pair
        # Trivial verdicts first: these duplicate the pruner's own rules,
        # but the planner must guarantee them regardless of pruner health —
        # the kernels index endpoints into the CSR unconditionally.
        if s == t:
            plan.resolved[pair] = (True, "fastpath", "identity")
            continue
        if s not in graph or t not in graph:
            plan.resolved[pair] = (False, "fastpath", "missing-endpoint")
            continue
        observed = check(s, t) if check is not None else None
        if observed is not None:
            answer, rule = observed
            plan.resolved[pair] = (answer, "fastpath", rule)
            continue
        cached = cache_get(s, t) if cache_get is not None else None
        if cached is not None:
            plan.resolved[pair] = (cached, "cache", "")
            continue
        plan.pending.append(pair)

    if label_filter is not None and plan.pending:
        verdicts = label_filter(plan.pending)
        if verdicts is not None:
            survivors: List[Pair] = []
            for pair, verdict in zip(plan.pending, verdicts):
                if verdict > 0:
                    plan.resolved[pair] = (True, "labels", "label-pos")
                    plan.label_pos += 1
                elif verdict < 0:
                    plan.resolved[pair] = (False, "labels", "label-neg")
                    plan.label_neg += 1
                else:
                    survivors.append(pair)
            plan.pending = survivors

    if pack:
        plan.pending, plan.waves = pack_waves(
            plan.pending, graph=graph, max_wave_lanes=max_wave_lanes
        )
    return plan


def pack_waves(
    pairs: Sequence[Pair],
    *,
    graph: DynamicDiGraph,
    max_wave_lanes: int = 64,
) -> Tuple[List[Pair], List[Wave]]:
    """Pack an already-filtered pair list into kernel waves.

    Endpoint-sorted packing: pairs sharing a source (then target) sit in
    adjacent lanes, so their bits share words and frontier rows. Returns
    the sorted pending list and the waves covering exactly that list —
    the tail of :func:`plan_batch`, and what the engine's wave rung calls
    on its survivors.
    """
    pending = sorted(pairs)
    waves = []
    for start in range(0, len(pending), max_wave_lanes):
        chunk = pending[start : start + max_wave_lanes]
        waves.append(Wave(chunk, _wave_lead(graph, chunk)))
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
      ``layer_dispatch_s``;
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
