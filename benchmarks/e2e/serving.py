"""The server under test: one real ``python -m repro serve`` subprocess.

Spawned fresh per workload, measured from outside through ``/proc``
(CPU and PSS of the whole process tree, shard workers included), and
stopped with SIGINT so ``service.close()`` runs. Teardown is part of the
verdict: exit code 0, no surviving children, no leaked shared-memory
segments.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
_CLK_TCK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0


class ServerFailed(RuntimeError):
    """The server did not start, died mid-run, or tore down dirty."""


def _children_of(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return found


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant."""
    pids, frontier = [root], [root]
    while frontier:
        frontier = [c for p in frontier for c in _children_of(p)]
        pids.extend(frontier)
    return pids


def _cpu_seconds(pid: int) -> float:
    """user+sys of ``pid`` plus its reaped children (fields 14-17)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return sum(int(f) for f in fields[11:15]) / _CLK_TCK


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _state(pid: int) -> str:
    """Process state letter from ``/proc`` (``""`` once the pid is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return ""


def stop_own_children() -> List[int]:
    """Stop and wait for every process this interpreter still has.

    Called on every path out of a run. The one process a clean run still
    owns here is ``multiprocessing``'s resource tracker, started when the
    traced fleet run publishes shared memory in-process: it ends only
    when its parent's pipe closes, so without this it outlives the
    benchmark by a moment. Returns the pids, tracker aside, that were
    still running and had to be killed: a clean run has none.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    me = os.getpid()
    others = [p for p in tree_pids(me) if p not in (me, tracker_pid)]
    stragglers = [p for p in others if _state(p) not in ("", "Z")]
    for pid in reversed(stragglers):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    if tracker_pid is not None:
        tracker._stop()  # closes its pipe and waits for it
    while True:  # reap: the direct children are dead or dying
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    deadline = time.perf_counter() + 3.0  # grandchildren are init's to reap
    while any(_state(p) for p in others) and time.perf_counter() < deadline:
        time.sleep(0.02)
    return stragglers


class ServerProcess:
    def __init__(
        self,
        graph_path: Path,
        flags: Sequence[str],
        workdir: Path,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        self.graph_path = graph_path
        self.flags = list(flags)
        self.workdir = workdir
        #: CPUs the server tree is confined to (``None`` = unconfined).
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._stderr = None

    def spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self._stderr = open(self.workdir / "server.stderr", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.graph_path),
             "--port", "0", *self.flags],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=str(self.workdir),
        )
        if self.cpus:
            # Before the interpreter has started a thread; children inherit.
            os.sched_setaffinity(self.proc.pid, self.cpus)

    def wait_ready(self) -> int:
        """Block until the server prints its bind line; returns the port."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        buffer = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise ServerFailed(
                    f"server not ready (exit={self.proc.poll()}): "
                    f"{self.stderr_tail()}"
                )
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        # "serving n=... m=... on HOST:PORT (coalesce=...)"
        self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        return self.port

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def cpu_seconds(self) -> float:
        return sum(_cpu_seconds(p) for p in tree_pids(self.proc.pid))

    def pss_mib(self) -> float:
        """Proportional set size of the tree (shared pages split fairly)."""
        return sum(_pss_kib(p) for p in tree_pids(self.proc.pid)) / 1024.0

    def stderr_tail(self) -> str:
        try:
            data = (self.workdir / "server.stderr").read_bytes()
        except OSError:
            return ""
        return data[-2000:].decode(errors="replace")

    def stop(self) -> Dict[str, object]:
        """SIGINT, wait, and audit what the server left behind."""
        proc = self.proc
        children = [p for p in tree_pids(proc.pid) if p != proc.pid]
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        deadline = time.perf_counter() + 3.0
        orphans = children
        while orphans and time.perf_counter() < deadline:
            orphans = [p for p in orphans if _state(p)]
            if orphans:
                time.sleep(0.05)
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.perf_counter() + 3.0
        while any(_state(p) for p in orphans) and time.perf_counter() < deadline:
            time.sleep(0.02)
        prefix = f"ifca{proc.pid}s"
        try:
            leaked = [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
        except OSError:
            leaked = []
        for name in leaked:
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass
        self._close_files()
        return {"exit_code": code, "orphans": len(orphans), "shm_leaked": len(leaked)}

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc is None:
            return
        tree = tree_pids(self.proc.pid)
        for pid in reversed(tree):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            self.proc.wait(5.0)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.perf_counter() + 3.0  # the rest are init's to reap
        while any(_state(p) for p in tree) and time.perf_counter() < deadline:
            time.sleep(0.02)
        self._close_files()

    def _close_files(self) -> None:
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
