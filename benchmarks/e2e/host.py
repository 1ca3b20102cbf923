"""The host the run is on: how fast it is while the run lasts, and which.

``SpeedProbes`` measures the speed state of each CPU all through a run
(see ``pace.py``); the time-based end-to-end metrics are reported at the
reference speed with it. A fixed calibration spin before and after the
workload and the ``/proc/stat`` steal share across it are diagnostics
recorded with every run, never gated; the metadata says which host it
was.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Seconds between two probes on one CPU (each costs 1.6-2.7 ms of it).
PACE_PERIOD_S = 0.1
#: What one ``pace.work()`` costs on the reference host (2.1 GHz Xeon
#: vCPU) in its fast state, beside a busy process: speed 1.0.
PACE_REFERENCE_MS = 1.6


class SpeedProbes:
    """One ``pace.py`` child per CPU, from ``start()`` to ``stop()``."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(cpus)
        self._procs: Dict[int, subprocess.Popen] = {}
        #: cpu -> (start times, CPU ms) of every probe, after ``stop()``.
        self.samples: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def start(self) -> None:
        script = str(Path(__file__).with_name("pace.py"))
        for cpu in self.cpus:
            self._procs[cpu] = subprocess.Popen(
                [sys.executable, script, str(cpu), str(PACE_PERIOD_S)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )

    def stop(self) -> None:
        """Close each probe's stdin (it exits on that), read what it
        measured and wait for it; safe to call twice."""
        for cpu, proc in self._procs.items():
            try:
                text = proc.communicate(timeout=10.0)[0]
            except subprocess.TimeoutExpired:
                proc.kill()
                text = proc.communicate()[0]
            rows = [line.split() for line in text.splitlines()]
            rows = [r for r in rows if len(r) == 2][1:]  # the first one is cold
            self.samples[cpu] = (
                np.array([float(r[0]) for r in rows]),
                np.array([float(r[1]) for r in rows]),
            )
        self._procs = {}

    def speed(self, cpus: Iterable[int], t_lo: float, t_hi: float) -> float:
        """Mean speed of ``cpus`` between two ``perf_counter`` instants,
        1.0 being the reference host's fast state. Speeds are averaged,
        not probe times: work done is the integral of speed."""
        speeds: List[float] = []
        for cpu in cpus:
            at, ms = self.samples[cpu]
            inside = (at >= t_lo - PACE_PERIOD_S) & (at <= t_hi)
            if not inside.any():
                raise RuntimeError(f"no speed probe on cpu {cpu} in the interval")
            speeds.append(float(np.mean(PACE_REFERENCE_MS / ms[inside])))
        return sum(speeds) / len(speeds)

    def speed_at(self, cpus: Iterable[int], instants: np.ndarray) -> np.ndarray:
        """Mean speed of ``cpus`` around each of ``instants``: every
        probe averaged with its two neighbours on either side (half a
        second in all), interpolated between probes. For statistics that
        are not sums over the window, such as a median latency: a
        request is scaled by the speed it was served at."""
        cpus = list(cpus)
        total = np.zeros(len(instants))
        box = np.ones(5)
        for cpu in cpus:
            at, ms = self.samples[cpu]
            smooth = (
                np.convolve(PACE_REFERENCE_MS / ms, box, mode="same")
                / np.convolve(np.ones(len(ms)), box, mode="same")
            )
            total += np.interp(instants, at, smooth)
        return total / len(cpus)


def calibration_ms() -> float:
    """A fixed amount of interpreter plus numpy work (~0.1 s)."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    block = np.arange(1 << 20, dtype=np.float64)
    for _ in range(25):
        block = np.sqrt(block * 1.0001 + 1.0)
    return (time.perf_counter() - started) * 1e3


CpuTimes = Dict[int, Tuple[int, int]]


def cpu_times() -> CpuTimes:
    """``(steal jiffies, all jiffies)`` of each CPU, from ``/proc/stat``."""
    times: CpuTimes = {}
    with open("/proc/stat") as handle:
        for line in handle:
            name, *rest = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                fields = [int(x) for x in rest]
                steal = fields[7] if len(fields) > 7 else 0
                times[int(name[3:])] = (steal, sum(fields[:8]))
    return times


def steal_share(
    before: CpuTimes, after: CpuTimes, cpus: Optional[Iterable[int]] = None
) -> float:
    """Share of ``cpus``' time (all CPUs' by default) the hypervisor gave
    to someone else between two ``cpu_times()``."""
    cpus = list(after if cpus is None else cpus)
    steal = sum(after[c][0] - before[c][0] for c in cpus)
    total = sum(after[c][1] - before[c][1] for c in cpus)
    return steal / total if total else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
