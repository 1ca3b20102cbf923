"""Edge-list I/O in the format used by SNAP and KONECT.

The paper's datasets come from SNAP (WT) and KONECT (the rest). The
reader lets users point the library at the real files when they have
them; the bundled benchmarks use synthetic analogs instead (see
DESIGN.md, substitutions).

Lines are ``u v`` (whitespace or comma separated; ``#`` and ``%`` start
comments); columns after the first two, such as KONECT's weight and
timestamp, are ignored.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, TextIO, Union

from repro.graph.digraph import DynamicDiGraph

PathLike = Union[str, Path]


def _data_lines(handle: TextIO) -> Iterator[List[str]]:
    for raw in handle:
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        yield line.replace(",", " ").split()


def read_edge_list(path: PathLike) -> DynamicDiGraph:
    """Read a static directed edge list into a :class:`DynamicDiGraph`."""
    graph = DynamicDiGraph()
    with open(path, "r", encoding="utf-8") as handle:
        for parts in _data_lines(handle):
            u, v = int(parts[0]), int(parts[1])
            graph.add_edge(u, v)
    return graph


@contextmanager
def atomic_write(path: Path) -> Iterator[TextIO]:
    """Write ``path`` through a same-directory temp file that is fsynced
    and renamed into place, then fsync the directory so the rename itself
    is durable: after a crash either the old file or the whole new one is
    there, never a truncated one."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_edge_list(
    graph: DynamicDiGraph, path: PathLike, atomic: bool = False
) -> None:
    """Write the graph as ``u v`` lines, one edge per line.

    ``atomic=True`` writes through :func:`atomic_write`, so a crash
    mid-write can never leave a truncated edge list behind — journal
    checkpoints (:meth:`repro.graph.journal.UpdateJournal.checkpoint`)
    rely on this.
    """
    target = Path(path)
    opened = atomic_write(target) if atomic else open(target, "w", encoding="utf-8")
    with opened as handle:
        handle.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
