"""Concurrency primitives for the serving engine.

Queries are pure-Python CPU work, so threads buy no parallel speedup under
the GIL — what the service needs from threading is *correct interleaving*:
many in-flight queries must observe a frozen snapshot while updates are
applied exclusively. A writer-preferring readers/writer lock provides
exactly that, and keeps the door open for a future multiprocess backend
where the same acquire/release discipline maps onto real parallelism.
"""

from __future__ import annotations

import threading


class RWLock:
    """A readers/writer lock with writer preference.

    Any number of readers may hold the lock concurrently; a writer holds it
    exclusively. Once a writer is waiting, new readers queue behind it so a
    steady query stream cannot starve updates (the paper's motivating
    workloads run tens of thousands of updates per second).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- reader side ---------------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- writer side ---------------------------------------------------
    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # -- context-manager views -----------------------------------------
    @property
    def read(self) -> "_Guard":
        return _Guard(self.acquire_read, self.release_read)

    @property
    def write(self) -> "_Guard":
        return _Guard(self.acquire_write, self.release_write)


class _Guard:
    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc) -> None:
        self._release()
