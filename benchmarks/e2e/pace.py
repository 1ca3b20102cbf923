"""Host-speed probe: one fixed piece of interpreter work, repeated on one CPU.

    python pace.py <cpu> <period_s>

Each vCPU of the reference host moves, for seconds to minutes at a time
and independently of the other, between a fast state and states up to
1.7x slower (nothing in ``/proc/stat`` shows it). Every time the
benchmark reports scales with that state, so the state is measured
beside the server, on the server's CPU, all through a run: every
``period_s`` this process does the same work and prints
``<perf_counter at start> <thread CPU ms it took>``. CPU time, not wall
time: the server it shares the CPU with pre-empts it. How much a slow
state costs depends on what the code does (1.7x for interpreter work on
a small working set, 1.25x for memory-bound numpy), so the work is the
kind a serving process does: two fifths JSON both ways, small dict
probes, calls and byte formatting, three fifths a random walk over a
40 MB dict, as a server walks its graph and indexes. Over 24 runs of two
workloads this blend tracked the servers' CPU per query to 2-3 %, the
small-working-set part alone to 3-7 %.

Ends when its stdin closes, so it cannot outlive the benchmark.
"""

from __future__ import annotations

import json
import os
import select
import struct
import sys
import time

_MESSAGE = {
    "type": "result", "id": 12345, "answer": True, "via": "fastpath",
    "detail": "same-scc", "version": 17, "elapsed_us": 3.2,
}
_TABLE = {(i, i + 1): i for i in range(4096)}
_HEAP = {i: (i, i + 1) for i in range(400_000)}
_walk = 1
_HEADER = struct.Struct(">I")


def _step(x: int) -> int:
    return x + 1


def work() -> int:
    """About 2 ms of a 2.1 GHz Xeon vCPU in its fast state."""
    global _walk
    total = 0
    for _ in range(36):
        total += len(json.loads(json.dumps(_MESSAGE, separators=(",", ":"))))
    get = _TABLE.get
    for i in range(1200):
        total = _step(total) + (get((i, i + 1)) or 0)
    for i in range(500):
        frame = _HEADER.pack(i) + b'{"type":"query","id":%d,"s":%d,"t":%d}' % (i, i, i)
        total += _HEADER.unpack(frame[:4])[0]
    heap, at = _HEAP, _walk
    for _ in range(5000):  # never the same 5000 entries twice running
        at = (at * 1103515245 + 12345) % 400_000
        total += heap[at][1]
    _walk = at
    return total


def main() -> int:
    cpu, period = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    out = sys.stdout
    while True:
        wall = time.perf_counter()
        started = time.thread_time()
        work()
        out.write(f"{wall:.6f} {(time.thread_time() - started) * 1e3:.5f}\n")
        out.flush()
        wait = max(0.0, wall + period - time.perf_counter())
        if select.select([sys.stdin], [], [], wait)[0]:
            return 0  # stdin closed: the benchmark is done (or gone)


if __name__ == "__main__":
    sys.exit(main())
