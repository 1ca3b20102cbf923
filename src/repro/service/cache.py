"""Version-stamped LRU result cache with monotone invalidation barriers.

Reachability answers age asymmetrically under updates (the insight DBL
exploits for its dynamic labels): an edge *insertion* can only add paths,
so cached ``True`` answers survive it; an edge *deletion* can only remove
paths, so cached ``False`` answers survive it. Further, an update that
leaves the SCC condensation untouched (an edge inside a surviving SCC, a
parallel inter-SCC edge) changes **no** reachability answer at all.

Instead of scanning entries on update, the cache keeps two watermark
versions fed by the service's update routing:

* ``neg_barrier`` — graph version of the last *reachability-adding*
  mutation. A cached ``False`` stamped before it may have become stale.
* ``pos_barrier`` — graph version of the last *reachability-removing*
  mutation. A cached ``True`` stamped before it may have become stale.

Validity is then an O(1) comparison at lookup time, and stale entries are
evicted lazily when touched.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple

Key = Tuple[int, int]


class VersionedQueryCache:
    """An LRU cache of ``(source, target) -> (answer, version)`` entries."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Key, Tuple[bool, int]]" = OrderedDict()
        self._neg_barrier = 0
        self._pos_barrier = 0
        self.hits = 0
        self.misses = 0
        self.stale_evictions = 0
        self.unconfident_rejections = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- invalidation --------------------------------------------------
    def note_update(
        self, version: int, *, adds_reachability: bool, removes_reachability: bool
    ) -> None:
        """Advance the barriers for a mutation that produced ``version``.

        Entries stamped with a version >= the barrier were computed on a
        graph that already included the mutation, so they stay valid.
        """
        with self._lock:
            if adds_reachability:
                self._neg_barrier = max(self._neg_barrier, version)
            if removes_reachability:
                self._pos_barrier = max(self._pos_barrier, version)

    def _valid(self, answer: bool, version: int) -> bool:
        barrier = self._pos_barrier if answer else self._neg_barrier
        return version >= barrier

    # -- lookup / store ------------------------------------------------
    def get(self, source: int, target: int) -> Optional[bool]:
        key = (source, target)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            answer, version = entry
            if not self._valid(answer, version):
                del self._entries[key]
                self.stale_evictions += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return answer

    def get_many(self, keys: Iterable[Key]) -> List[Optional[bool]]:
        """:meth:`get` for every key, in order, under one lock acquisition.

        The read twin of :meth:`put_many`: the same counts, stale-entry
        deletion and LRU touch order as one :meth:`get` per key — a walk
        probes a thousand pairs and per-probe locking costs more than
        the probes.
        """
        answers: List[Optional[bool]] = []
        hits = stale = 0
        with self._lock:
            entries = self._entries
            for key in keys:
                entry = entries.get(key)
                if entry is None:
                    answers.append(None)
                elif not self._valid(*entry):
                    del entries[key]
                    stale += 1
                    answers.append(None)
                else:
                    entries.move_to_end(key)
                    hits += 1
                    answers.append(entry[0])
            self.hits += hits
            self.misses += len(answers) - hits
            self.stale_evictions += stale
        return answers

    def put(
        self,
        source: int,
        target: int,
        answer: bool,
        version: int,
        confident: bool = True,
    ) -> None:
        """Store an answer; silently refuses anything non-exact or stale.

        The ``confident`` gate is enforced *here*, not just at call sites:
        a best-effort degraded guess that slipped into the cache would be
        replayed as an exact answer for as long as its version stays
        valid, so the cache itself is the last line of defense.
        """
        with self._lock:
            if not confident:
                self.unconfident_rejections += 1
                return  # never cache a best-effort guess as an exact answer
            if not self._valid(answer, version):
                return  # raced with an update; do not cache a stale answer
            key = (source, target)
            self._entries[key] = (answer, version)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def put_many(
        self,
        items: Iterable[Tuple[Key, bool]],
        version: int,
        confident: bool = True,
    ) -> None:
        """Store a batch of answers under one lock acquisition.

        Same validity/confidence gates as :meth:`put`; a bit-parallel
        wave lands a frame of answers at once and per-entry locking would
        cost more than the entries are worth. One version per call means
        one validity verdict per answer value, taken once, and eviction
        by the overflow count: the entries, LRU order and counters left
        are those of one :meth:`put` per entry.
        """
        with self._lock:
            if not confident:
                self.unconfident_rejections += 1
                return
            keep_true = version >= self._pos_barrier
            keep_false = version >= self._neg_barrier
            entries = self._entries
            move = entries.move_to_end
            for key, answer in items:
                if keep_true if answer else keep_false:
                    entries[key] = (answer, version)
                    move(key)
            for _ in range(len(entries) - self.capacity):
                entries.popitem(last=False)

    # -- introspection (tests, stats) ----------------------------------
    def peek(self, source: int, target: int) -> Optional[Tuple[bool, int]]:
        """The raw entry without touching LRU order or counters."""
        with self._lock:
            return self._entries.get((source, target))
