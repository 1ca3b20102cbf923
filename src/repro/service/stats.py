"""The serving engine's observability surface.

Counters answer "where were queries resolved?" (fast path, cache, engine,
degraded), "what did updates cost the caches?" (invalidations, rebuilds),
and per-stage latency histograms answer "where does time go?". Everything
is cheap enough to leave on in production: one lock acquisition and a few
integer increments per event.

Histograms use power-of-two microsecond buckets, the standard trick for
latency telemetry: fixed memory, no per-sample allocation, and quantiles
recoverable to within a factor of two — plenty to spot a stage whose tail
moved from microseconds to milliseconds.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

#: Pipeline stages tracked by the latency histograms. ``fastpath`` is one
#: walk's whole index pass (fast path, cache and label filter fold into
#: one sample — per-pair timers would cost as much as the probes);
#: ``update_wait`` is the share of ``update`` spent queueing for the write
#: lock; ``freeze`` is the per-epoch CSR snapshot build the kernel path
#: amortizes over queries; ``journal`` is the write-ahead append (fsync
#: batches show as spikes); ``batch`` is one bit-parallel kernel wave (up
#: to 64 queries per word), so its per-sample latency covers a whole
#: wave, not one query; ``shard`` is one walk's scatter–gather route over
#: the shard-worker fleet, and ``shard_deploy`` covers partition +
#: publish + spawn/swap of the fleet (paid once per served graph epoch).
STAGES = (
    "fastpath",
    "engine",
    "degraded",
    "update",
    "update_wait",
    "freeze",
    "journal",
    "batch",
    "shard",
    "shard_deploy",
)

_BUCKETS = 40  # 2**40 us ~ 12.7 days; effectively unbounded


def _bucket_of(seconds: float) -> int:
    micros = int(seconds * 1e6)
    bucket = 0
    while micros > 0 and bucket < _BUCKETS - 1:
        micros >>= 1
        bucket += 1
    return bucket


class LatencyHistogram:
    """Log-scale latency histogram; bucket ``i`` covers ``[2**(i-1), 2**i)`` us."""

    __slots__ = ("counts", "total_seconds", "count")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * _BUCKETS
        self.total_seconds = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.counts[_bucket_of(seconds)] += 1
        self.total_seconds += seconds
        self.count += 1

    def quantile_us(self, q: float) -> float:
        """Upper bucket edge (microseconds) containing quantile ``q``."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return float(2 ** i)
        return float(2 ** (_BUCKETS - 1))

    @property
    def mean_us(self) -> float:
        return (self.total_seconds / self.count) * 1e6 if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_us": round(self.mean_us, 2),
            "p50_us": self.quantile_us(0.50),
            "p95_us": self.quantile_us(0.95),
            "p99_us": self.quantile_us(0.99),
        }


class ServiceStats:
    """Thread-safe counters + per-stage histograms for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._fastpath_rules: Dict[str, int] = {}
        self._histograms: Dict[str, LatencyHistogram] = {
            stage: LatencyHistogram() for stage in STAGES
        }

    # -- recording -----------------------------------------------------
    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def tally(self, counts: Dict[str, int], rules: Dict[str, int]) -> None:
        """One walk's counters and fast-path verdicts by rule, one lock."""
        with self._lock:
            for table, adds in (self._counters, counts), (self._fastpath_rules, rules):
                for name, by in adds.items():
                    if by:
                        table[name] = table.get(name, 0) + by

    def observe_latency(self, stage: str, seconds: float) -> None:
        with self._lock:
            self._histograms[stage].observe(seconds)

    # -- reading -------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def stage_mean_seconds(self, stage: str) -> float:
        """Mean observed latency of one stage (0.0 before any sample).

        Admission control reads this to derive its retry-after hint from
        live behavior instead of a configured constant.
        """
        with self._lock:
            hist = self._histograms[stage]
            return hist.total_seconds / hist.count if hist.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        """One coherent view: counters, derived rates, stage latencies."""
        with self._lock:
            counters = dict(self._counters)
            rules = dict(self._fastpath_rules)
            latency = {
                stage: hist.snapshot()
                for stage, hist in self._histograms.items()
                if hist.count
            }
        queries = counters.get("queries", 0)
        fastpath = counters.get("fastpath_hits", 0)
        cache_hits = counters.get("cache_hits", 0)
        engine = counters.get("engine_calls", 0)
        bit_resolved = counters.get("bit_resolved", 0)
        bit_words = counters.get("bit_words", 0)
        derived = {
            "fastpath_rate": fastpath / queries if queries else 0.0,
            "cache_hit_rate": cache_hits / queries if queries else 0.0,
            # Queries answered without *any* search: bit-batch answers do
            # search (one shared sweep), so they are excluded alongside
            # scalar engine calls and degraded runs.
            "no_search_rate": (
                (
                    queries
                    - engine
                    - counters.get("degraded", 0)
                    - bit_resolved
                )
                / queries
                if queries
                else 0.0
            ),
            # Fraction of seeded word bits that carried a live query
            # across all bit-parallel waves (1.0 = perfectly packed).
            "word_occupancy": (
                counters.get("bit_lanes", 0) / (64 * bit_words)
                if bit_words
                else 0.0
            ),
        }
        return {
            "counters": counters,
            "fastpath_rules": rules,
            "derived": derived,
            "latency": latency,
        }
