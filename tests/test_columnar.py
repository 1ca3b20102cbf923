"""The columnar index body: the fast path, the cache and the walk at width.

Three contracts. ``FastPathPruner.check_many`` is ``check`` over arrays
(verdict *and* rule name) or it refuses; ``VersionedQueryCache.get_many``
is N ``get`` calls under one lock; and a ladder walk answers the same
whichever body ran its index rungs — at every width, labels on and off,
with outside input in the frame and with the pruner rung faulted.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.labels as labels_module
from repro.graph.traversal import is_reachable_bfs
from repro.service import BatchCostModel, ReachabilityService
from repro.service import engine as engine_module
from repro.service.batcher import COLUMNAR_MIN_PAIRS
from repro.service.cache import VersionedQueryCache
from repro.service.fastpath import RULE_ANSWERS, RULES, FastPathPruner
from repro.service.faults import FaultPlan, FaultSpec

from tests.conftest import random_graph

pytestmark = pytest.mark.bitparallel

#: Walk widths on both sides of the crossover, and the benchmark's frame.
WIDTHS = (1, COLUMNAR_MIN_PAIRS - 1, COLUMNAR_MIN_PAIRS, 1024)


# ----------------------------------------------------------------------
# (a) check_many == [check(s, t)], verdict and rule name
# ----------------------------------------------------------------------
def _check_many(pruner: FastPathPruner, pairs):
    """``check_many`` over ``pairs`` in ``check``'s vocabulary, or
    ``None`` when it refuses."""
    ids = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    rule = pruner.check_many(ids[:, 0].copy(), ids[:, 1].copy())
    if rule is None:
        return None
    return [
        None if code < 0 else (RULE_ANSWERS[code], RULES[code])
        for code in rule.tolist()
    ]


_VERTEX = st.integers(0, 11)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("+"), _VERTEX, _VERTEX),
        st.tuples(st.just("-"), _VERTEX, _VERTEX),
        st.tuples(st.just("rebuild"), _VERTEX, _VERTEX),
    ),
    max_size=14,
)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(st.tuples(_VERTEX, _VERTEX), max_size=30),
    ops=_OPS,
    supportive=st.integers(0, 3),
)
def test_check_many_is_check_over_arrays_or_refuses(edges, ops, supportive):
    """Under interleaved inserts and deletes, invalidated samples and a
    holder swap at an unchanged version: with the version's snapshot
    frozen ``check_many`` names ``check``'s verdict and rule for every
    pair (unknown ids and ``s == t`` included); with a stale view and no
    snapshot it refuses instead of answering."""
    graph = random_graph(8, 0, seed=0)
    for u, v in edges:
        graph.add_edge(u, v)
    pruner = FastPathPruner(
        graph,
        num_supportive=supportive,
        seed=1,
        csr_provider=lambda: graph.csr(build=False),
    )
    probes = [(s, t) for s in range(-1, 13) for t in range(-1, 13)]

    def compare():
        expected = [pruner.check(s, t) for s, t in probes]
        assert _check_many(pruner, probes) == expected

    graph.csr()
    compare()
    for op, u, v in ops:
        before = graph.version
        if op == "+":
            pruner.apply_insert(u, v)
        elif op == "-":
            pruner.apply_delete(u, v)
        else:
            # A holder swap the version does not see: the view's masks
            # were read from the old holder and must not be used.
            pruner.rebuild_samples()
        if graph.version != before:
            # The view (and the snapshot) are of an older version.
            assert _check_many(pruner, probes) is None
            graph.csr()
        compare()


@pytest.mark.parametrize("supportive", [9, 40])
def test_check_many_with_wider_mask_words(supportive):
    graph = random_graph(60, 150, seed=5)
    pruner = FastPathPruner(
        graph, num_supportive=supportive, seed=2, csr_provider=graph.csr
    )
    probes = [(s, t) for s in range(60) for t in range(0, 60, 3)]
    assert _check_many(pruner, probes) == [pruner.check(s, t) for s, t in probes]
    rules = Counter(hit[1] for hit in _check_many(pruner, probes) if hit)
    assert any(rule.startswith("supportive-") for rule in rules)


def test_no_view_beyond_one_mask_word_or_without_a_snapshot():
    graph = random_graph(80, 300, seed=3)
    many = FastPathPruner(graph, num_supportive=65, seed=0, csr_provider=graph.csr)
    assert len(many._samples.vertices) == 65
    assert many.view() is None  # 65 sets do not fit one 64-bit word
    unfrozen = FastPathPruner(random_graph(8, 12, seed=1), csr_provider=lambda: None)
    assert unfrozen.view() is None and unfrozen.view_builds == 0
    assert FastPathPruner(random_graph(8, 12, seed=1)).view() is None


# ----------------------------------------------------------------------
# VersionedQueryCache.get_many: N get calls under one lock
# ----------------------------------------------------------------------
_KEY = st.tuples(st.integers(0, 5), st.integers(0, 5))
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEY, st.booleans()),
        st.tuples(st.just("get"), st.lists(_KEY, max_size=6), st.none()),
        st.tuples(st.just("barrier"), st.booleans(), st.booleans()),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(ops=_CACHE_OPS)
def test_get_many_is_n_gets_under_one_lock(ops):
    one, many = VersionedQueryCache(capacity=4), VersionedQueryCache(capacity=4)
    version = 1
    for op, a, b in ops:
        if op == "put":
            for cache in (one, many):
                cache.put(*a, b, version)
        elif op == "barrier":
            version += 1
            for cache in (one, many):
                cache.note_update(
                    version, adds_reachability=a, removes_reachability=b
                )
        else:
            assert many.get_many(a) == [one.get(*key) for key in a]
        for name in ("hits", "misses", "stale_evictions"):
            assert getattr(many, name) == getattr(one, name), name
        # Same entries in the same LRU order: the next eviction agrees.
        assert list(many._entries.items()) == list(one._entries.items())
    for key in [(s, t) for s in range(6) for t in range(6)]:
        assert many.peek(*key) == one.peek(*key)


# ----------------------------------------------------------------------
# (b) the walk answers the same whichever body ran its index rungs
# ----------------------------------------------------------------------
def _service(graph, *, waves: bool, **kwargs) -> ReachabilityService:
    svc = ReachabilityService(graph.copy(), seed=3, **kwargs)
    # Searched pairs are answered by the engine rung at every width (or
    # by a sweep at every width), so ``via`` / ``detail`` do not depend
    # on how wide the cost model likes its waves.
    svc._batch_cost = (
        BatchCostModel(layer_dispatch_s=0, word_edge_s=0)
        if waves
        else BatchCostModel(layer_dispatch_s=1e9)
    )
    svc.graph.csr()  # a frozen snapshot is what lets the view exist
    return svc


def _walks(svc, pairs, width):
    outcomes = []
    for at in range(0, len(pairs), width):
        outcomes.extend(svc.query_batch(pairs[at : at + width]))
    return outcomes


def _distinct_pairs(n: int, count: int, seed: int):
    """``count`` distinct pairs over ids ``-2 .. n+1``: unknown and
    negative endpoints and ``s == t`` are all in there."""
    rng = random.Random(seed)
    pool = [(s, t) for s in range(-2, n + 2) for t in range(-2, n + 2)]
    return rng.sample(pool, count)


@pytest.mark.parametrize("use_labels", [True, False], ids=["labels", "no-labels"])
def test_every_width_walks_to_the_same_outcomes_and_counters(
    use_labels, monkeypatch
):
    # Sparse enough, and the labels narrow enough (landmark word only),
    # that every rung answers some pairs and a few dozen are searched.
    monkeypatch.setattr(labels_module, "LABEL_BITS", 64)
    graph = random_graph(300, 450, seed=11)
    # Each pair once, then all of them again: the second pass is served
    # from the cache wherever the first one searched.
    pairs = _distinct_pairs(300, 1024, seed=4) * 2
    oracle = {
        (s, t): s == t
        or (s in graph and t in graph and is_reachable_bfs(graph, s, t))
        for s, t in pairs
    }
    seen = {}
    for width in WIDTHS:
        with _service(graph, waves=False, use_labels=use_labels) as svc:
            outcomes = _walks(svc, pairs, width)
            stats = svc.stats()
            columnar = svc.pruner.view_builds
        for pair, outcome in zip(pairs, outcomes):
            assert (outcome.source, outcome.target) == pair
            assert outcome.confident
            assert outcome.answer == oracle[pair], (width, outcome)
        counters = stats["counters"]
        seen[width] = (
            [(o.answer, o.confident, o.via, o.detail) for o in outcomes],
            stats["fastpath_rules"],
            {
                name: counters.get(name, 0)
                for name in (
                    "cache_hits", "cache_misses", "batched_dedup",
                    "fastpath_hits", "label_hits_pos", "label_hits_neg",
                )
            },
        )
        # The body is picked by width and the view — nothing else.
        assert bool(columnar) == (width >= COLUMNAR_MIN_PAIRS)
    vias = Counter(via for _, _, via, _ in seen[1][0])
    assert vias["cache"] and vias["engine"] and vias["fastpath"]
    assert bool(vias["labels"]) == use_labels
    assert seen[1][2]["cache_hits"] > 0 and seen[1][2]["cache_misses"] > 0
    for width in WIDTHS[1:]:
        assert seen[width] == seen[1], width


@pytest.mark.parametrize("width", WIDTHS[1:])
def test_both_bodies_agree_on_frames_with_duplicates(width, monkeypatch):
    """The same frames — repeats inside and across them — through the
    columnar body and through the scalar one: outcome for outcome,
    counter for counter, sweeps included."""
    graph = random_graph(40, 70, seed=12)
    rng = random.Random(7)
    pairs = [
        (rng.randrange(-1, 42), rng.randrange(-1, 42)) for _ in range(3 * width)
    ]
    runs = []
    for floor in (COLUMNAR_MIN_PAIRS, 1 << 30):
        monkeypatch.setattr(engine_module, "COLUMNAR_MIN_PAIRS", floor)
        with _service(graph, waves=True) as svc:
            outcomes = _walks(svc, pairs, width)
            stats = svc.stats()
            built = svc.pruner.view_builds
        counters = dict(stats["counters"])
        counters.pop("pruner_view_builds")
        runs.append((outcomes, stats["fastpath_rules"], counters))
        assert bool(built) == (floor <= width)
    assert runs[0] == runs[1]
    assert runs[0][2].get("batched_dedup", 0) > 0


# ----------------------------------------------------------------------
# Outside input, and a pruner rung that is out
# ----------------------------------------------------------------------
_OUTSIDE = [
    ((2**70, 3), "missing-endpoint"),
    ((3, -(2**70)), "missing-endpoint"),
    ((2**70, 2**70), "identity"),
    ((-5, 3), "missing-endpoint"),
    ((3, 4000), "missing-endpoint"),
    ((7, 7), "identity"),
    ((-9, -9), "identity"),
]


def _frame_with_outside_input(width: int, seed: int):
    rng = random.Random(seed)
    inside = [(rng.randrange(40), rng.randrange(40)) for _ in range(width)]
    frame = [pair for pair, _ in _OUTSIDE] + inside
    rng.shuffle(frame)
    return frame[: max(width, len(_OUTSIDE))] if width >= len(_OUTSIDE) else frame


def _assert_exact(graph, outcomes):
    trivial = dict(_OUTSIDE)
    for o in outcomes:
        pair = (o.source, o.target)
        if pair in trivial or o.source == o.target:
            detail = trivial.get(pair, "identity")
            assert (o.via, o.detail, o.confident) == ("fastpath", detail, True)
            assert o.answer == (detail == "identity")
            continue
        assert o.confident and o.answer == is_reachable_bfs(graph, *pair), o


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("broken", ["fault-point", "probe-raises"])
def test_trivial_verdicts_hold_with_the_pruner_rung_out(width, broken, monkeypatch):
    graph = random_graph(40, 70, seed=13)
    plan = None
    if broken == "fault-point":
        plan = FaultPlan("pruner-out", (FaultSpec("fastpath"),))
    with _service(graph, waves=True, fault_plan=plan) as svc:
        if broken == "probe-raises":
            def boom(*_):
                raise RuntimeError("pruner probe failed")

            monkeypatch.setattr(svc.pruner, "check", boom)
            monkeypatch.setattr(svc.pruner, "check_many", boom)
        frames = [_frame_with_outside_input(width, seed) for seed in range(3)]
        if width == 1:
            frames = [[pair] for pair in frames[0]]
        for frame in frames:
            outcomes = svc.query_batch(frame)  # must not raise
            assert [(o.source, o.target) for o in outcomes] == frame
            _assert_exact(graph, outcomes)
        counters = svc.stats()["counters"]
        rules = svc.stats()["fastpath_rules"]
    # Every other rule is out with the rung; the walks went on without it.
    assert set(rules) <= {"identity", "missing-endpoint"}
    if broken == "fault-point" or width >= COLUMNAR_MIN_PAIRS:
        # One count per walk: the rung sat it out, or its one gather raised.
        assert counters["stage_errors_fastpath"] == len(frames)
    else:
        # One count per pair that got as far as the probe.
        assert counters["stage_errors_fastpath"] >= 1


def test_an_id_beyond_int64_costs_the_label_tier_nothing():
    graph = random_graph(40, 70, seed=14)
    rng = random.Random(2)
    frame = [(rng.randrange(40), rng.randrange(40)) for _ in range(1023)]
    frame.insert(500, (2**70, 5))
    with _service(graph, waves=True) as svc:
        for _ in range(20):  # more walks than the tier's 16 strikes
            outcomes = svc.query_batch(frame)
        assert outcomes[500].detail == "missing-endpoint"
        _assert_exact(graph, outcomes)
        counters = svc.stats()["counters"]
        assert counters.get("stage_errors_labels", 0) == 0
        assert svc._label_failures == 0 and not svc._labels_disabled
        assert svc.pruner.view_builds
