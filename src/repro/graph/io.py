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

import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, TextIO, Tuple, Union

import numpy as np

from repro.graph.digraph import DynamicDiGraph

PathLike = Union[str, Path]

#: The reader's block size in bytes: blocks end at a line end, and every
#: temporary array a block needs is a few times this size.
BLOCK_BYTES = 1 << 16

#: Byte classes for the block check; 0 is any byte that sends the block
#: down the per-line path.
_DIGIT, _BLANK, _NEWLINE, _SIGN = 1, 2, 3, 4
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[ord("0") : ord("9") + 1] = _DIGIT
_CLASS[[ord(" "), ord("\t")]] = _BLANK
_CLASS[ord("\n")] = _NEWLINE
_CLASS[[ord("-"), ord("+")]] = _SIGN


def read_edge_list(path: PathLike) -> DynamicDiGraph:
    """Read a static directed edge list into a :class:`DynamicDiGraph`;
    a line that is not an edge raises ``ValueError`` naming ``FILE:LINE``.

    The file is read in line-aligned blocks of about
    :data:`BLOCK_BYTES`. A block whose every line is blank, a comment
    starting in its first column, or two plain decimal tokens is parsed
    at once by numpy; any other block goes line by line, so both read
    every line as ``int()`` does, and the graph is built in bulk.
    """
    return DynamicDiGraph(edges=_read_edges(path))


def _read_edges(path: PathLike) -> Iterator[Tuple[int, int]]:
    lineno = 0
    with open(path, "rb") as handle:
        for block in _blocks(handle):
            pairs = _parse_block(block)
            if pairs is not None:
                yield from zip(pairs[0::2].tolist(), pairs[1::2].tolist())
                lineno += block.count(b"\n")
                continue
            lines = io.TextIOWrapper(
                io.BytesIO(block), encoding="utf-8", errors="replace"
            )
            for lineno, raw in enumerate(lines, start=lineno + 1):
                line = raw.strip()
                if not line or line.startswith(("#", "%")):
                    continue
                parts = line.replace(",", " ").split()
                try:
                    u, v = int(parts[0]), int(parts[1])
                except (IndexError, ValueError):
                    raise ValueError(
                        f"{path}:{lineno}: expected 'u v', got {line!r}"
                    ) from None
                yield u, v


def _blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The file in blocks that end at a ``\\n`` (the last one at EOF);
    a block exceeds :data:`BLOCK_BYTES` only to hold a longer line."""
    tail = b""
    while True:
        # Fill up to the next multiple of BLOCK_BYTES: a block is one
        # BLOCK_BYTES read unless a line outgrows it.
        chunk = handle.read(BLOCK_BYTES - len(tail) % BLOCK_BYTES)
        if not chunk:
            if tail:
                yield tail
            return
        tail += chunk
        cut = tail.rfind(b"\n") + 1
        if cut:
            yield tail[:cut]
            tail = tail[cut:]


def _parse_block(block: bytes) -> Optional[np.ndarray]:
    """The block's endpoints, ``u0 v0 u1 v1 ...``, when every line is
    blank, a ``#`` / ``%`` comment from its first column, or exactly two
    tokens of digits, with one leading sign at most and 18 characters at
    most, apart by spaces and tabs: tokens ``int()`` and
    ``np.fromstring`` read alike. ``None`` otherwise."""
    raw = np.frombuffer(block, dtype=np.uint8)
    if (raw == ord("\r")).any():  # a line end the per-line path splits on
        return None
    starts = np.flatnonzero(raw == ord("\n")) + 1
    starts = np.concatenate(([0], starts[starts < raw.size]))
    comment = (raw[starts] == ord("#")) | (raw[starts] == ord("%"))
    if comment.any():  # cut each comment line up to its newline
        ends = np.append(starts[1:] - 1, raw.size)
        marks = np.zeros(raw.size + 1, dtype=np.int8)
        marks[starts[comment]] = 1
        marks[ends[comment]] = -1
        raw = raw[np.cumsum(marks[:-1], dtype=np.int8) == 0]
    kind = _CLASS[raw]
    token = (kind == _DIGIT) | (kind == _SIGN)
    first = token & ~np.concatenate(([False], token[:-1]))
    last = token & ~np.append(token[1:], False)
    # A sign opens a token and a digit follows it.
    signed = first & (np.append(kind[1:], 0) == _DIGIT)
    if (kind == 0).any() or ((kind == _SIGN) & ~signed).any():
        return None
    first, last = np.flatnonzero(first), np.flatnonzero(last)
    if (last - first >= 18).any():  # 19 characters can overflow int64
        return None
    line_of = np.searchsorted(np.flatnonzero(kind == _NEWLINE), first)
    per_line = np.bincount(line_of)
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    if not first.size:  # np.fromstring reads a blank block as [0]
        return first
    return np.fromstring(raw.tobytes(), dtype=np.int64, sep=" ")


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
