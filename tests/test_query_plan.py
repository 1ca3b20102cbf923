"""Golden tests for the serving ladder at width 1.

:meth:`ReachabilityService.query` is a batch of one: it walks the same
ordered rungs as ``query_batch`` (index rungs, deadline pre-check,
search rungs). These tests pin which rung answers, with which detail and
which counters, so the rung list can change shape without changing what
a caller sees.
"""

import functools
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.service import ReachabilityService, faults
from repro.service.faults import FaultPlan, FaultSpec

from tests.conftest import force_waves


def line_graph():
    """0 -> 1 -> ... -> 9, plus a disconnected island 50..59."""
    g = DynamicDiGraph(edges=[(i, i + 1) for i in range(9)])
    for i in range(50, 59):
        g.add_edge(i, i + 1)
    return g


def service(**kwargs):
    kwargs.setdefault("num_supportive", 0)
    # These are golden tests for the pre-label ladder stages; the label
    # tier's own contract lives in tests/test_labels.py.
    kwargs.setdefault("use_labels", False)
    return ReachabilityService(line_graph(), **kwargs)


class TestPlanning:
    def test_fastpath_resolves_in_plan(self):
        with service() as svc:
            out = svc.query(3, 3)
            assert out.via == "fastpath"
            assert out.answer is True and out.confident
            assert out.version == svc.graph.version
            assert svc.stats()["counters"]["fastpath_hits"] == 1

    def test_cache_hit_resolves_in_plan(self):
        with service() as svc:
            first = svc.query(0, 9)
            assert first.via == "engine"
            out = svc.query(0, 9)
            assert out.via == "cache"
            assert out.answer is True
            assert svc.stats()["counters"]["cache_hits"] == 1

    def test_expired_deadline_plans_degraded(self):
        with service() as svc:
            out = svc.query(0, 8, deadline_s=-1.0)
            assert out.via == "degraded"
            assert out.detail.startswith("pre-engine:")
            assert svc.stats()["counters"].get("engine_calls", 0) == 0

    def test_engine_plan_carries_budget(self):
        with service(engine_edge_budget=1) as svc:
            # The engine rung runs under a budget: one edge access is
            # not enough, so the search hands over to the degraded rung.
            out = svc.query(0, 8)
            assert out.via == "degraded" and out.answer is True
            counters = svc.stats()["counters"]
            assert counters["cache_misses"] == 1
            assert counters["budget_degraded"] == 1

    def test_stage_errors_fall_through_to_engine(self):
        plan_faults = FaultPlan(
            "t", (FaultSpec("fastpath"), FaultSpec("cache"))
        )
        with service(fault_plan=plan_faults) as svc:
            assert svc.query(0, 8).via == "engine"
            counters = svc.stats()["counters"]
            assert counters["stage_errors_fastpath"] >= 1
            assert counters["stage_errors_cache"] >= 1


class TestExecutionEquivalence:
    """End-to-end `query()` behavior — the golden ladder outcomes the
    inline pipeline produced, now via plan + executor."""

    def test_full_ladder_vias(self):
        with service() as svc:
            assert svc.query(0, 9).via == "engine"
            assert svc.query(0, 9).via == "cache"
            assert svc.query(4, 4).via == "fastpath"
            out = svc.query(0, 8, deadline_s=0.0)
            assert out.via == "degraded"
            assert "pre-engine" in out.detail

    def test_negative_pair_round_trip(self):
        with service() as svc:
            out = svc.query(0, 55)
            assert out.answer is False and out.confident
            assert svc.query(55, 0).answer is False

    def test_engine_fallback_via_preserved(self):
        faults = FaultPlan("t", (FaultSpec("engine", max_fires=1),))
        with service(fault_plan=faults) as svc:
            out = svc.query(0, 9)
            assert out.answer is True and out.confident
            assert out.via == "engine-fallback"
            counters = svc.stats()["counters"]
            assert counters["engine_failures"] == 1
            assert counters["engine_fallbacks"] == 1

    def test_counter_golden_sequence(self):
        with service() as svc:
            svc.query(0, 9)   # miss -> engine
            svc.query(0, 9)   # cache hit
            svc.query(3, 3)   # fastpath
            svc.query(0, 7, deadline_s=0.0)  # miss -> pre-engine degrade
            counters = svc.stats()["counters"]
            assert counters["queries"] == 4
            assert counters["cache_misses"] == 2
            assert counters["cache_hits"] == 1
            assert counters["fastpath_hits"] == 1

    def test_batch_strategies_agree_with_scalar_queries(self):
        pairs = [(0, 9), (9, 0), (0, 55), (55, 59), (2, 7), (3, 3)]
        with service() as svc:
            scalar = [svc.query(s, t).answer for s, t in pairs]
        # Both search rungs: with no snapshot to sweep (every freeze
        # fails) the survivors take the engine rung, with a free sweep
        # they ride the wave rung.
        no_freeze = FaultPlan("no-freeze", (FaultSpec("freeze"),))
        for sweep in (False, True):
            with service(fault_plan=None if sweep else no_freeze) as svc:
                outcomes = force_waves(svc).query_batch(pairs)
                assert [o.answer for o in outcomes] == scalar
                assert all(o.confident for o in outcomes)
                swept = svc.stats()["counters"].get("bit_waves", 0) > 0
                assert swept == sweep


#: The rungs that answer without a search.
INDEX_VIAS = ("fastpath", "cache", "labels")

_vertex = st.integers(0, 11)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 10),
    edges=st.lists(st.tuples(_vertex, _vertex), max_size=30),
    pairs=st.lists(st.tuples(_vertex, _vertex), min_size=1, max_size=20),
    use_labels=st.booleans(),
)
def test_point_queries_and_batches_walk_one_ladder(n, edges, pairs, use_labels):
    """``[query(s, t) ...]`` and ``query_batch(pairs)`` are the same walk
    at widths 1 and N: both exact against a BFS oracle (duplicates and
    unknown endpoints included), and wherever an index rung answered,
    both name the same rung and rule. Process-free, numpy or not."""
    graph = DynamicDiGraph(
        vertices=range(n), edges=[(u % n, v % n) for u, v in edges if u % n != v % n]
    )
    with ReachabilityService(
        graph.copy(), use_labels=use_labels
    ) as svc:
        points = [svc.query(s, t) for s, t in pairs]
    with ReachabilityService(
        graph.copy(), use_labels=use_labels
    ) as svc:
        batch = svc.query_batch(pairs)
    first = {}
    for pair, point, batched in zip(pairs, points, batch):
        s, t = pair
        # Identity is the first trivial verdict, known vertex or not.
        truth = s == t or is_reachable_bfs(graph, s, t)
        for outcome in (point, batched):
            assert (outcome.source, outcome.target) == pair
            assert outcome.answer == truth, (pair, outcome)
            assert outcome.confident
            assert outcome.version == graph.version
        # A repeated point query finds its first answer in the cache; a
        # batch answers duplicates once. Compare first occurrences.
        point = first.setdefault(pair, point)
        if point.via in INDEX_VIAS or batched.via in INDEX_VIAS:
            assert (point.via, point.detail) == (batched.via, batched.detail)


_update = st.tuples(st.booleans(), _vertex, _vertex)


@settings(max_examples=80, deadline=None)
@given(
    edges=st.lists(st.tuples(_vertex, _vertex), max_size=30),
    updates=st.lists(_update, max_size=6),
    warm=st.lists(st.tuples(_vertex, _vertex), max_size=4),
    pair=st.tuples(_vertex, _vertex),
    use_labels=st.booleans(),
)
def test_a_point_query_is_a_batch_of_one(edges, updates, warm, pair, use_labels):
    """On one service state — same graph, same updates through the
    service, same earlier queries in the cache — ``query(s, t)`` and
    ``query_batch([(s, t)])[0]`` agree on answer, confidence and rung."""
    answers = []
    for ask in (
        lambda svc: svc.query(*pair),
        lambda svc: svc.query_batch([pair])[0],
    ):
        graph = DynamicDiGraph(
            vertices=range(12), edges=[(u, v) for u, v in edges if u != v]
        )
        with ReachabilityService(graph, use_labels=use_labels) as svc:
            for insert, u, v in updates:
                if u != v:
                    (svc.add_edge if insert else svc.remove_edge)(u, v)
            for s, t in warm:
                svc.query(s, t)
            outcome = ask(svc)
            truth = pair[0] == pair[1] or is_reachable_bfs(svc.graph, *pair)
        assert outcome.answer == truth and outcome.confident
        answers.append((outcome.answer, outcome.confident, outcome.via))
    assert answers[0] == answers[1]


@functools.lru_cache(maxsize=None)
def _search_heavy_case():
    """A sparse random digraph, 1024 pairs (repeats included), and the
    BFS verdict of each."""
    rng = random.Random(19)
    graph = DynamicDiGraph(vertices=range(120))
    while graph.num_edges < 260:
        u, v = rng.randrange(120), rng.randrange(120)
        if u != v:
            graph.add_edge(u, v)
    pairs = [(rng.randrange(120), rng.randrange(120)) for _ in range(1024)]
    return graph, pairs, [is_reachable_bfs(graph, s, t) for s, t in pairs]


@pytest.mark.parametrize("width", [1, 1024])
@pytest.mark.parametrize("mode", ["default", "breaker-open"])
def test_the_calling_thread_answers_and_no_other_exists(
    mode, width, monkeypatch
):
    """Whether the cutover picks the wave rung or the open breaker makes
    it abstain (the serving path's dict-substrate leg), and at either
    width, the walk answers oracle-exactly on the thread that asked: the
    set of live threads is the same before and after."""
    graph, pairs, truth = _search_heavy_case()
    threads = set(threading.enumerate())
    monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)
    monkeypatch.setattr(faults, "PROBE_INTERVAL_S", 3600.0)
    # Index tiers weakened so most pairs need a search rung.
    with ReachabilityService(
        graph.copy(), num_supportive=0, use_labels=False,
    ) as svc:
        if mode == "breaker-open":
            svc._breaker.record_failure()
            assert svc._breaker.state == "open"
        if width == 1:
            outcomes = [svc.query(s, t) for s, t in pairs]
        else:
            outcomes = svc.query_batch(pairs)
        assert set(threading.enumerate()) == threads
        counters = svc.stats()["counters"]
    assert [o.answer for o in outcomes] == truth
    assert all(o.confident for o in outcomes)
    assert {o.via for o in outcomes} - set(INDEX_VIAS)  # searches ran
    if mode != "default":
        assert counters.get("bit_waves", 0) == 0
    elif width == 1024:
        assert counters["bit_waves"] > 0  # the cutover's own choice
    assert set(threading.enumerate()) == threads
