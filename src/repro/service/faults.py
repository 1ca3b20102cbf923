"""Fault injection and circuit breaking for the serving engine.

Robustness claims are only as good as the failures they were tested
against, so the service carries its chaos harness with it:

* :class:`FaultSpec` / :class:`FaultPlan` describe *what* to break — a
  named pipeline stage (``fastpath``, ``cache``, ``freeze``, ``engine``,
  ``degraded``, ``update``) or the numpy kernel substrate itself
  (``kernel``), with what probability, and whether the fault is an
  exception or a latency spike.
* :class:`FaultInjector` is the live instance the engine calls
  ``fire(stage)`` on at its instrumented points. Deterministic given the
  plan's seed; thread-safe; counts every fire so chaos tests can assert
  faults actually happened.
* :class:`CircuitBreaker` guards the primary engine substrate: repeated
  failures trip it OPEN (queries route straight to the dict-substrate
  fallback), and after a probe interval one query runs *both* substrates
  and compares verdicts — the half-open probe doubles as a verdict-
  contract check, so a kernel that fails by answering *wrongly* rather
  than by raising also keeps the breaker open.

Everything here is dependency-free and usable in production (an absent
injector costs one ``None`` check per stage).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Stages an injector can target: the ladder's fire points (the three
#: index rungs each have one although they share the ``fastpath``
#: latency sample; the shard rung has none — worker faults are driven
#: by killing processes), ``update``, ``kernel`` (the numpy substrate,
#: via :func:`repro.graph.kernels.set_fault_hook`) and ``journal`` (the
#: write-ahead append).
FAULT_STAGES = (
    "fastpath",
    "labels",
    "cache",
    "freeze",
    "engine",
    "degraded",
    "update",
    "kernel",
    "journal",
)


class InjectedFault(RuntimeError):
    """The exception an ``error``-kind fault raises at its stage point."""

    def __init__(self, stage: str, detail: str = "") -> None:
        super().__init__(f"injected fault at stage {stage!r}" + (
            f" ({detail})" if detail else ""
        ))
        self.stage = stage


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: where, what kind, how often, for how long."""

    #: Target stage; one of :data:`FAULT_STAGES`.
    stage: str
    #: ``"error"`` raises :class:`InjectedFault`; ``"latency"`` sleeps.
    kind: str = "error"
    #: Per-fire probability in ``[0, 1]``.
    probability: float = 1.0
    #: Sleep duration for ``latency`` faults.
    delay_s: float = 0.0
    #: Stop firing after this many hits (``None`` = unbounded).
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stage not in FAULT_STAGES:
            raise ValueError(f"unknown fault stage {self.stage!r}")
        if self.kind not in ("error", "latency"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of fault specs."""

    name: str
    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """The live chaos source one service instance fires into.

    ``fire(stage)`` is called by the engine at each instrumented point;
    matching specs roll the (seeded, shared) RNG and either sleep or
    raise. All bookkeeping is under one lock; the sleep itself is not, so
    latency faults do not serialize concurrent callers.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_stage: Dict[str, List[FaultSpec]] = {}
        for spec in plan.specs:
            self._by_stage.setdefault(spec.stage, []).append(spec)
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._fired: Dict[str, int] = {}
        self._spec_fires: Dict[int, int] = {}

    def fire(self, stage: str) -> None:
        """Run every armed fault for ``stage`` (may sleep and/or raise)."""
        specs = self._by_stage.get(stage)
        if not specs:
            return
        delay = 0.0
        error: Optional[InjectedFault] = None
        with self._lock:
            for i, spec in enumerate(specs):
                if spec.max_fires is not None:
                    if self._spec_fires.get(id(spec), 0) >= spec.max_fires:
                        continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                self._spec_fires[id(spec)] = self._spec_fires.get(id(spec), 0) + 1
                self._fired[stage] = self._fired.get(stage, 0) + 1
                if spec.kind == "latency":
                    delay += spec.delay_s
                else:
                    error = InjectedFault(stage, f"plan={self.plan.name}")
                    break  # one raise per fire point is enough
        if delay:
            time.sleep(delay)
        if error is not None:
            raise error

    def kernel_hook(self) -> Callable[[str], None]:
        """A hook for :func:`repro.graph.kernels.set_fault_hook` that
        routes kernel entry points into the ``kernel`` stage."""
        return lambda _kernel_name: self.fire("kernel")

    @property
    def fired(self) -> Dict[str, int]:
        """Fires per stage so far (a copy)."""
        with self._lock:
            return dict(self._fired)

# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"
#: Consecutive primary failures that trip a closed breaker open.
FAILURE_THRESHOLD = 3
#: Seconds an open breaker waits before it admits a probe.
PROBE_INTERVAL_S = 0.25


class CircuitBreaker:
    """A three-state breaker around the primary engine substrate.

    CLOSED: queries run the primary engine; :data:`FAILURE_THRESHOLD`
    consecutive failures trip to OPEN. OPEN: :meth:`acquire` denies the
    primary (callers take the fallback) until :data:`PROBE_INTERVAL_S` has
    elapsed, then admits exactly one *probe* (HALF_OPEN). The probe's
    :meth:`record_success` re-closes; its :meth:`record_failure` re-opens
    and restarts the interval. Cooperative-budget interrupts must not be
    recorded at all — a spent budget is not a substrate failure.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.trips = 0
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def acquire(self) -> Tuple[bool, bool]:
        """``(allowed, probing)`` for one query about to run.

        ``allowed`` is whether the primary substrate may run at all;
        ``probing`` marks the single half-open verdict-check query.
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True, False
            if self._state == BREAKER_OPEN:
                if self._clock() - self._opened_at >= PROBE_INTERVAL_S:
                    self._state = BREAKER_HALF_OPEN
                    self.probes += 1
                    return True, True
                return False, False
            # HALF_OPEN: a probe is already in flight; stay on the fallback.
            return False, False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state != BREAKER_CLOSED:
                self._state = BREAKER_CLOSED

    def record_failure(self) -> None:
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                return
            self._failures += 1
            if self._state == BREAKER_CLOSED and (
                self._failures >= FAILURE_THRESHOLD
            ):
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self.trips += 1


# ----------------------------------------------------------------------
# Jittered exponential backoff
# ----------------------------------------------------------------------
class Backoff:
    """Jittered exponential backoff with a cap and reset-on-success.

    The delay sequence is ``base * 2**attempt`` capped at
    ``cap_s``, each draw jittered uniformly into ``[delay/2, delay]`` so
    a fleet of reconnecting followers does not stampede the endpoint
    they all lost at the same instant. Deterministic given ``seed``;
    not thread-safe (one owner per instance, like the loops that use
    it). :meth:`reset` returns to the base delay after a success.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        cap_s: float = 2.0,
        seed: int = 0,
    ) -> None:
        if base_s <= 0:
            raise ValueError("base_s must be > 0")
        if cap_s < base_s:
            raise ValueError("cap_s must be >= base_s")
        self.base_s = base_s
        self.cap_s = cap_s
        self.attempts = 0
        self.last_delay_s = 0.0
        self._rng = random.Random(seed)

    def next_delay(self) -> float:
        """The next (jittered) delay; advances the attempt counter."""
        raw = min(self.cap_s, self.base_s * 2.0 ** self.attempts)
        self.attempts += 1
        self.last_delay_s = raw * (0.5 + 0.5 * self._rng.random())
        return self.last_delay_s

    def reset(self) -> None:
        """Back to the base delay (call after a success)."""
        self.attempts = 0
        self.last_delay_s = 0.0

    def snapshot(self) -> Dict[str, float]:
        """Stats-friendly view of where the schedule stands."""
        return {
            "attempts": self.attempts,
            "last_delay_s": self.last_delay_s,
            "base_s": self.base_s,
            "cap_s": self.cap_s,
        }


# ----------------------------------------------------------------------
# Named plans for the chaos CLI and CI
# ----------------------------------------------------------------------
NAMED_PLANS: Dict[str, FaultPlan] = {
    "none": FaultPlan("none"),
    # The kernel substrate raises mid-search; the breaker must trip and
    # the dict fallback must keep answering.
    "kernel-crash": FaultPlan(
        "kernel-crash",
        (FaultSpec("kernel", "error", probability=0.3),),
    ),
    # The whole engine stage is flaky (substrate-independent errors).
    "engine-flaky": FaultPlan(
        "engine-flaky",
        (FaultSpec("engine", "error", probability=0.25),),
    ),
    # Cheap stages fail; the pipeline must fall through to the engine.
    "stage-errors": FaultPlan(
        "stage-errors",
        (
            FaultSpec("fastpath", "error", probability=0.2),
            FaultSpec("labels", "error", probability=0.2),
            FaultSpec("cache", "error", probability=0.2),
            FaultSpec("freeze", "error", probability=0.5),
        ),
    ),
    # The label tier is fully poisoned: every probe and batch prefilter
    # errors, so queries must fall through to the cache/engine ladder and
    # stay exact with the tier contributing nothing.
    "label-poison": FaultPlan(
        "label-poison",
        (FaultSpec("labels", "error", probability=1.0),),
    ),
    # Latency spikes on the hot stages; deadlines should degrade, not hang.
    "slow-stages": FaultPlan(
        "slow-stages",
        (
            FaultSpec("fastpath", "latency", probability=0.2, delay_s=0.002),
            FaultSpec("cache", "latency", probability=0.2, delay_s=0.002),
            FaultSpec("engine", "latency", probability=0.3, delay_s=0.005),
        ),
    ),
    # Updates fail at the injection point (before any mutation): callers
    # see the error, graph state stays consistent, queries keep running.
    "update-storm": FaultPlan(
        "update-storm",
        (FaultSpec("update", "error", probability=0.2),),
    ),
    # The journal append fails after the in-memory mutation: durability
    # degrades (counted), availability must not.
    "journal-flaky": FaultPlan(
        "journal-flaky",
        (FaultSpec("journal", "error", probability=0.3),),
    ),
    # Even the degraded path errors; the service must still return an
    # outcome (via="error") rather than propagate.
    "last-resort": FaultPlan(
        "last-resort",
        (
            FaultSpec("engine", "error", probability=1.0),
            FaultSpec("degraded", "error", probability=0.5),
        ),
    ),
    # A bit of everything, low probabilities.
    "mixed-chaos": FaultPlan(
        "mixed-chaos",
        (
            FaultSpec("fastpath", "error", probability=0.05),
            FaultSpec("labels", "error", probability=0.05),
            FaultSpec("cache", "error", probability=0.05),
            FaultSpec("freeze", "error", probability=0.2),
            FaultSpec("kernel", "error", probability=0.1),
            FaultSpec("engine", "error", probability=0.05),
            FaultSpec("engine", "latency", probability=0.1, delay_s=0.002),
            FaultSpec("journal", "error", probability=0.1),
            FaultSpec("degraded", "error", probability=0.1),
        ),
    ),
}


def plan_by_name(name: str, seed: Optional[int] = None) -> FaultPlan:
    """Look up a named plan, optionally re-seeded."""
    try:
        plan = NAMED_PLANS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_PLANS))
        raise ValueError(f"unknown fault plan {name!r} (known: {known})")
    if seed is not None and seed != plan.seed:
        plan = FaultPlan(plan.name, plan.specs, seed)
    return plan
