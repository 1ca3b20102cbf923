"""Tests for the fault-tolerance layer (`repro.service.faults` + engine).

Three rings, inside out: unit tests for the injector and the circuit
breaker state machine (with a fake clock — no sleeps); integration tests
for the containment ladder (each stage fails, queries keep flowing);
and ``chaos``-marked survival runs replaying mixed workloads under the
named fault plans with a BFS oracle on the confident answers.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.ifca import IFCAMethod
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import is_reachable_bfs
from repro.service import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ReachabilityService,
    plan_by_name,
    replay_workload,
)
from repro.service import engine, faults
from repro.service.batcher import BatchCostModel
from repro.service.faults import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    PROBE_INTERVAL_S,
)
from repro.workloads.mixed import generate_mixed_workload

from tests.conftest import force_waves, random_graph


# ----------------------------------------------------------------------
# FaultSpec / FaultInjector
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            FaultSpec("nonsense")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("engine", kind="panic")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultSpec("engine", probability=1.5)


class TestFaultInjector:
    def test_unarmed_stage_is_free(self):
        inj = FaultPlan("p", (FaultSpec("engine"),)).injector()
        inj.fire("cache")  # no spec for cache: no-op
        assert inj.fired == {}

    def test_certain_error_raises(self):
        inj = FaultPlan("p", (FaultSpec("engine"),)).injector()
        with pytest.raises(InjectedFault) as err:
            inj.fire("engine")
        assert err.value.stage == "engine"
        assert inj.fired == {"engine": 1}

    def test_seeded_determinism(self):
        spec = FaultSpec("engine", probability=0.5)
        outcomes = []
        for _ in range(2):
            inj = FaultPlan("p", (spec,), seed=7).injector()
            hits = 0
            for _ in range(100):
                try:
                    inj.fire("engine")
                except InjectedFault:
                    hits += 1
            outcomes.append(hits)
        assert outcomes[0] == outcomes[1]
        assert 20 < outcomes[0] < 80  # actually probabilistic

    def test_max_fires_exhausts(self):
        inj = FaultPlan("p", (FaultSpec("engine", max_fires=2),)).injector()
        for _ in range(2):
            with pytest.raises(InjectedFault):
                inj.fire("engine")
        inj.fire("engine")  # third call: spec spent, no raise
        assert inj.fired == {"engine": 2}

    def test_latency_fault_sleeps(self):
        inj = FaultPlan(
            "p", (FaultSpec("engine", kind="latency", delay_s=0.02),)
        ).injector()
        start = time.perf_counter()
        inj.fire("engine")
        assert time.perf_counter() - start >= 0.015

    def test_kernel_hook_routes_to_kernel_stage(self):
        inj = FaultPlan("p", (FaultSpec("kernel"),)).injector()
        hook = inj.kernel_hook()
        with pytest.raises(InjectedFault):
            hook("csr_bibfs")
        assert inj.fired == {"kernel": 1}

    def test_unknown_plan_name(self):
        with pytest.raises(ValueError):
            plan_by_name("no-such-plan")


# ----------------------------------------------------------------------
# Circuit breaker (fake clock: no sleeps, no flakes)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(clock=FakeClock())
        for _ in range(faults.FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 2)
        breaker = CircuitBreaker(clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # streak broken, no trip

    def test_open_denies_until_probe_interval(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.record_failure()
        assert breaker.acquire() == (False, False)
        clock.advance(PROBE_INTERVAL_S / 2)
        assert breaker.acquire() == (False, False)
        clock.advance(PROBE_INTERVAL_S / 2)
        assert breaker.acquire() == (True, True)  # the half-open probe

    def test_only_one_probe_in_flight(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.record_failure()
        clock.advance(PROBE_INTERVAL_S)
        assert breaker.acquire() == (True, True)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.acquire() == (False, False)  # concurrent query

    def test_probe_success_closes(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.record_failure()
        clock.advance(PROBE_INTERVAL_S)
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.acquire() == (True, False)

    def test_probe_failure_reopens_with_fresh_interval(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.record_failure()
        clock.advance(PROBE_INTERVAL_S)
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 1  # a failed probe is not a new trip
        assert breaker.acquire() == (False, False)
        clock.advance(1.1)
        assert breaker.acquire() == (True, True)


# ----------------------------------------------------------------------
# Containment ladder: every stage may fail, queries keep flowing
# ----------------------------------------------------------------------
def _connected_pair_graph():
    """A graph where 0 -> ... -> 19 and 50..59 are disconnected."""
    g = DynamicDiGraph(edges=[(i, i + 1) for i in range(19)])
    for i in range(50, 59):
        g.add_edge(i, i + 1)
    return g


class TestContainment:
    def test_fastpath_and_cache_errors_fall_through(self):
        plan = FaultPlan(
            "t",
            (
                FaultSpec("fastpath"),
                FaultSpec("labels"),
                FaultSpec("cache"),
            ),
        )
        with ReachabilityService(
            _connected_pair_graph(), fault_plan=plan
        ) as service:
            out = service.query(0, 19)
            assert out.answer is True and out.confident
            counters = service.stats()["counters"]
            assert counters["stage_errors_fastpath"] >= 1
            assert counters["stage_errors_labels"] >= 1
            assert counters["stage_errors_cache"] >= 1

    def test_engine_error_takes_fallback(self):
        plan = FaultPlan("t", (FaultSpec("engine", max_fires=1),))
        with ReachabilityService(
            _connected_pair_graph(),
            num_supportive=0,
            use_labels=False,
            fault_plan=plan,
        ) as service:
            out = service.query(0, 19)
            assert out.answer is True and out.confident
            assert out.via == "engine-fallback"
            counters = service.stats()["counters"]
            assert counters["engine_failures"] == 1
            assert counters["engine_fallbacks"] == 1

    def test_total_engine_failure_degrades(self):
        plan = FaultPlan("t", (FaultSpec("engine"),))  # every attempt dies
        with ReachabilityService(
            _connected_pair_graph(),
            num_supportive=0,
            use_labels=False,
            fault_plan=plan,
        ) as service:
            out = service.query(0, 19)
            assert out.answer is True and out.confident  # bounded search met
            assert out.via == "degraded"
            assert "engine-error" in out.detail

    def test_even_degraded_failure_returns_an_outcome(self):
        plan = FaultPlan(
            "t", (FaultSpec("engine"), FaultSpec("degraded"))
        )
        with ReachabilityService(
            _connected_pair_graph(),
            num_supportive=0,
            use_labels=False,
            fault_plan=plan,
        ) as service:
            out = service.query(0, 19)
            assert out.via == "error"
            assert out.confident is False

    def test_update_fault_is_atomic(self):
        plan = FaultPlan("t", (FaultSpec("update", max_fires=1),))
        with ReachabilityService(
            DynamicDiGraph(edges=[(0, 1)]), fault_plan=plan
        ) as service:
            version_before = service.graph.version
            with pytest.raises(InjectedFault):
                service.add_edge(1, 2)
            assert service.graph.version == version_before
            assert not service.graph.has_edge(1, 2)
            # The spec is spent; the retried update goes through.
            service.add_edge(1, 2)
            assert service.graph.has_edge(1, 2)

    def test_journal_fault_keeps_availability(self, tmp_path):
        plan = FaultPlan("t", (FaultSpec("journal"),))
        with ReachabilityService(
            DynamicDiGraph(edges=[(0, 1)]),
            journal=tmp_path / "wal.jsonl",
            fault_plan=plan,
        ) as service:
            service.add_edge(1, 2)  # journal append dies, update survives
            assert service.graph.has_edge(1, 2)
            assert service.stats()["counters"]["journal_errors"] == 1

    def test_breaker_trips_and_routes_to_fallback(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 2)
        plan = FaultPlan("t", (FaultSpec("engine", max_fires=4),))
        with ReachabilityService(
            _connected_pair_graph(),
            num_supportive=0,
            use_labels=False,
            cache_capacity=1,
            fault_plan=plan,
        ) as service:
            service._breaker._clock = FakeClock()  # no probe in this test
            # Two primary failures trip the breaker; the fallback attempt
            # after each also burns a max_fires charge (engine faults are
            # substrate-independent), so give the spec headroom.
            for source in (0, 1):
                service.query(source, 19)
            assert service._breaker.state == BREAKER_OPEN
            assert service.stats()["counters"]["breaker_trips"] == 1
            # Open breaker: the primary is not consulted at all.
            out = service.query(2, 19)
            assert out.via == "engine-fallback"

    def test_budget_exhaustion_is_not_a_breaker_failure(self, monkeypatch):
        # A 600-long path: every (i, 599) search must walk far past the
        # 1-edge ceiling, so the engine raises BudgetExceeded at its
        # first checkpoint — cancellation, not substrate failure.
        path = DynamicDiGraph(edges=[(i, i + 1) for i in range(599)])
        monkeypatch.setattr(engine, "DEGRADE_BUDGET", 50)
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)
        with ReachabilityService(
            path,
            num_supportive=0,
            use_labels=False,
            cache_capacity=1,
            engine_edge_budget=1,
        ) as service:
            saw_degraded = False
            for i in range(10):
                out = service.query(i, 599)
                saw_degraded = saw_degraded or out.via == "degraded"
                assert service._breaker.state == BREAKER_CLOSED
            assert saw_degraded
            assert service.stats()["counters"]["budget_degraded"] > 0


class _LyingMethod:
    """A method whose engine inverts every answer — the verdict-contract
    violation the half-open probe exists to catch."""

    name = "liar"
    exact = True

    def __init__(self, graph):
        self.graph = graph
        self.calls = 0

    def query(self, source, target):
        self.calls += 1
        return not is_reachable_bfs(self.graph, source, target)


class TestVerdictProbe:
    def test_probe_catches_wrong_answers(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)
        clock = FakeClock()
        graph = _connected_pair_graph()
        with ReachabilityService(
            graph,
            method_factory=_LyingMethod,
            fallback_factory=lambda g: IFCAMethod(g),
            num_supportive=0,
            use_labels=False,
            cache_capacity=1,
        ) as service:
            service._breaker._clock = clock  # deterministic probe timing
            # The primary answers (wrongly) and the breaker, still closed,
            # believes it. Force it open via recorded failures, then let
            # the probe compare verdicts.
            service._breaker.record_failure()
            assert service._breaker.state == BREAKER_OPEN
            clock.advance(PROBE_INTERVAL_S)
            out = service.query(0, 19)  # the half-open probe query
            assert out.answer is True  # the fallback's (correct) answer
            assert out.via == "engine-fallback"
            assert service.stats()["counters"]["verdict_mismatches"] == 1
            assert service._breaker.state == BREAKER_OPEN  # still distrusted


class TestFallbackSharesNoKernel:
    """The dict-substrate fallback and the verdict probe must not touch
    the kernels they stand in for: with every kernel entry faulted, both
    still answer exactly, and the ``kernel`` fault count does not move."""

    @pytest.fixture(autouse=True)
    def _one_failure_trips(self, monkeypatch):
        monkeypatch.setattr(faults, "FAILURE_THRESHOLD", 1)

    def _service(self, graph):
        graph.csr()  # frozen: the primary would run on the kernels
        service = ReachabilityService(
            graph,
            num_supportive=0,
            use_labels=False,
            cache_capacity=1,
            fault_plan=FaultPlan("kernels-down", (FaultSpec("kernel"),)),
        )
        return service

    def test_open_breaker_answers_without_kernels(self):
        graph = random_graph(80, 200, seed=3)
        rng = random.Random(5)
        pairs = [(rng.randrange(80), rng.randrange(80)) for _ in range(60)]
        with self._service(graph) as service:
            service._breaker._clock = FakeClock()  # no probe comes due
            service._breaker.record_failure()
            assert service._breaker.state == BREAKER_OPEN
            fired = service.injector.fired.get("kernel", 0)
            point = [service.query(s, t) for s, t in pairs]
            batch = service.query_batch(pairs)
            assert service.injector.fired.get("kernel", 0) == fired
            for (s, t), a, b in zip(pairs, point, batch):
                truth = is_reachable_bfs(graph, s, t)
                for outcome in (a, b):
                    assert outcome.answer == truth and outcome.confident
                    assert outcome.via in ("engine-fallback", "fastpath", "cache")
            assert {o.via for o in point + batch} >= {"engine-fallback"}
            assert service.stats()["counters"].get("engine_failures", 0) == 0

    def test_half_open_probe_completes_without_kernels(self):
        graph = random_graph(80, 200, seed=4)
        clock = FakeClock()
        with self._service(graph) as service:
            s, t = next(  # a reachable pair only a search can answer
                (s, t) for s in range(80) for t in range(80)
                if service.pruner.check(s, t) is None
                and is_reachable_bfs(graph, s, t)
            )
            service._breaker._clock = clock
            service._breaker.record_failure()
            # The probe's own query: the primary dies on its first kernel
            # entry, the dict twin answers and the breaker re-opens.
            clock.advance(PROBE_INTERVAL_S)
            out = service.query(s, t)
            assert (out.answer, out.via) == (True, "engine-fallback")
            assert service._breaker.state == BREAKER_OPEN
            # The verdict check itself re-answers on the dict twin only:
            # it agrees, closes the breaker, and enters no kernel.
            clock.advance(PROBE_INTERVAL_S)
            assert service._breaker.acquire() == (True, True)
            fired = service.injector.fired["kernel"]
            failures = service.stats()["counters"]["engine_failures"]
            assert service._verdict_probe(s, t, True, None)
            assert service._breaker.state == BREAKER_CLOSED
            assert service.injector.fired["kernel"] == fired
            assert service.stats()["counters"]["engine_failures"] == failures


class TestAdmissionControl:
    def test_retry_after_hint_is_backlog_times_engine_mean(self):
        """Shedding happens at the socket layer, whose drain loop runs
        one wave at a time: the hint is the whole backlog at the
        engine-stage mean, with no parallelism divisor."""
        with ReachabilityService(_connected_pair_graph()) as service:
            # Before any engine sample the mean is a 1 ms prior.
            assert service.shed_outcome(0, 19, backlog=5).retry_after_ms == 5
            service._stats.observe_latency("engine", 0.004)
            service._stats.observe_latency("engine", 0.008)
            shed = service.shed_outcome(0, 19, backlog=10)
            assert (shed.via, shed.answer, shed.confident) == ("shed", False, False)
            assert shed.retry_after_ms == 60  # 10 queued x 6 ms
            assert shed.detail == "retry-after-ms=60"
            assert service.retry_after_hint_ms(1) == 6
            assert service.stats()["counters"]["shed"] == 2


class TestCooperativeCancellation:
    def test_deadline_degrades_instead_of_blocking(self, monkeypatch):
        graph = random_graph(400, 1200, seed=9)
        monkeypatch.setattr(engine, "DEGRADE_BUDGET", 10_000)
        with ReachabilityService(
            graph,
            num_supportive=0,
            use_labels=False,
            cache_capacity=1,
            deadline_s=0.0,  # already expired at submission
        ) as service:
            rng = random.Random(1)
            degraded = 0
            for _ in range(20):
                s, t = rng.randrange(400), rng.randrange(400)
                out = service.query(s, t)
                # O(1) stages still answer past the deadline (by design);
                # anything needing a search must degrade, never block.
                assert out.via in ("fastpath", "cache", "degraded")
                degraded += out.via == "degraded"
                if out.confident:
                    assert out.answer == is_reachable_bfs(graph, s, t)
            assert degraded > 0

    @pytest.mark.parametrize("rung", ["waves", "engine"])
    @pytest.mark.parametrize("width", [1, 64])
    def test_a_walk_with_no_limit_passes_no_budget(self, monkeypatch, width, rung):
        """No deadline and no ``engine_edge_budget``: the bit kernel and
        the engine search run with ``budget=None``, so nothing
        checkpoints."""
        # A long path: no index rung can prove i -> 499 - i, so every
        # pair needs a search.
        graph = DynamicDiGraph(edges=[(i, i + 1) for i in range(499)])
        pairs = [(i, 499 - i) for i in range(width)]
        budgets = []
        kernel = engine.csr_bit_bibfs

        def bit_bibfs(csr, ids, budget=None, lead=None):
            budgets.append(("waves", budget))
            return kernel(csr, ids, budget=budget, lead=lead)

        monkeypatch.setattr(engine, "csr_bit_bibfs", bit_bibfs)
        with ReachabilityService(
            graph, num_supportive=0, use_labels=False, cache_capacity=1
        ) as service:
            search = service.method.engine.query_with_stats

            def query_with_stats(source, target, budget=None):
                budgets.append(("engine", budget))
                return search(source, target, budget=budget)

            monkeypatch.setattr(
                service.method.engine, "query_with_stats", query_with_stats
            )
            if rung == "waves":
                force_waves(service)
            else:  # a sweep never pays: every pair takes the engine rung
                service._batch_cost = BatchCostModel(layer_dispatch_s=1e9)
            outcomes = service.query_batch(pairs)
        assert all(out.answer and out.confident for out in outcomes)
        assert {where for where, _ in budgets} == {rung}
        assert all(budget is None for _, budget in budgets)


# ----------------------------------------------------------------------
# Survival runs: named plans over mixed workloads + BFS oracle
# ----------------------------------------------------------------------
def _survival_run(monkeypatch, plan_name, seed=13, n=200, m=500, ops=400):
    graph = random_graph(n, m, seed=seed)
    ops_stream = generate_mixed_workload(
        graph, ops, query_ratio=0.8, seed=seed
    )
    monkeypatch.setattr(engine, "CSR_FREEZE_THRESHOLD", 1)
    with ReachabilityService(
        graph,
        num_supportive=0,
        cache_capacity=64,
        fault_plan=plan_by_name(plan_name, seed=seed),
    ) as service:
        result = replay_workload(service, ops_stream)
        final_version = service.graph.version
        for outcome in result.outcomes:
            if outcome.confident and outcome.version == final_version:
                expected = is_reachable_bfs(
                    service.graph, outcome.source, outcome.target
                )
                assert outcome.answer == expected, (
                    f"plan {plan_name}: confident answer "
                    f"{outcome.source}->{outcome.target} wrong"
                )
        snapshot = service.stats()
    assert len(result.outcomes) == result.num_queries
    return result, snapshot


@pytest.mark.chaos
@pytest.mark.parametrize(
    "plan_name",
    [
        "none",
        "kernel-crash",
        "engine-flaky",
        "stage-errors",
        "update-storm",
        "last-resort",
        "mixed-chaos",
    ],
)
def test_survival_under_named_plans(plan_name, monkeypatch):
    result, snapshot = _survival_run(monkeypatch, plan_name)
    if plan_name == "update-storm":
        assert result.failed_updates > 0
    if plan_name in ("engine-flaky", "last-resort"):
        assert snapshot["counters"].get("engine_failures", 0) > 0


@pytest.mark.chaos
def test_survival_with_journal_recovery(tmp_path):
    """Chaos + journal: after the run, replay restores the exact graph."""
    from repro.graph.journal import replay as journal_replay

    seed = 5
    graph = random_graph(150, 400, seed=seed)
    # The base must be vertex-identical (isolated vertices included), or
    # replay's deterministic version arithmetic diverges on inserts that
    # implicitly add a vertex the base is missing.
    base = DynamicDiGraph(vertices=range(150), edges=sorted(graph.edges()))
    base_ops = generate_mixed_workload(
        graph, 300, query_ratio=0.6, seed=seed
    )
    journal_path = tmp_path / "wal.jsonl"
    with ReachabilityService(
        graph,
        num_supportive=0,
        journal=journal_path,
        fault_plan=plan_by_name("engine-flaky", seed=seed),
    ) as service:
        replay_workload(service, base_ops)
        want_edges = sorted(service.graph.edges())
        want_version = service.graph.version
        service.journal.flush()
    recovered = journal_replay(journal_path, base)
    assert sorted(recovered.graph.edges()) == want_edges
    assert recovered.graph.version == want_version
