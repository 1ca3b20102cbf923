"""Write-ahead update journal: crash-safe durability for dynamic graphs.

The in-memory :class:`~repro.graph.digraph.DynamicDiGraph` is the only
authoritative state the serving engine has — a process crash loses every
update applied since start. This module adds the classic write-ahead
discipline without giving up the index-free update cost: each effective
mutation appends one JSON line to an append-only journal, and recovery
replays the journal (optionally on top of a checkpoint edge list) to
rebuild the exact pre-crash graph, version counter included.

File format
-----------
One JSON object per line (JSONL). The first line is a header::

    {"op": "open", "ver": <graph version at open>, "ckpt": <path|null>}

followed by mutation records stamped with the graph version *after* the
mutation applied::

    {"op": "+", "u": 3, "v": 7, "ver": 1042}
    {"op": "-", "u": 3, "v": 7, "ver": 1043}

Version stamps make replay self-verifying: applying the same operations
to the same base state reproduces the same version sequence (the graph's
counter bumps deterministically), so a final mismatch means the base
graph does not match the journal and recovery refuses to hand back a
silently wrong graph.

Durability model
----------------
Appends are buffered and fsynced every :data:`FSYNC_EVERY` records
(1 would be a classic synchronous WAL; 64 trades the tail of the batch
for throughput). A torn final line — the crash landed mid-append — is
expected and tolerated: replay stops at the first undecodable *final*
line. An undecodable line with valid records after it is real corruption
and raises :class:`JournalCorrupt`.

Compaction
----------
:meth:`UpdateJournal.checkpoint` writes the current graph as an atomic
edge list (temp file + fsync + rename, see
:func:`repro.graph.io.write_edge_list`) and restarts the journal with a
header pointing at it, so the journal never grows without bound and
recovery cost is proportional to updates since the last checkpoint.
Checkpoints to one path alternate between it and its ``.alt`` twin, so
the snapshot a crash would replay on is never the one being replaced.

Tailing
-------
:class:`JournalTailer` turns the journal into a *stream*: it reads
records incrementally as a concurrent writer appends them, which is what
primary->replica replication ships over the wire (``repro.net``). The
tailer is torn-tail aware (an incomplete final line stays buffered until
the writer finishes it), survives checkpoint compaction mid-tail (it
drains the replaced file, then follows the rename), and deduplicates by
version stamp so reopening never re-yields a record. A compaction that
discarded records the tailer had not consumed yet raises
:class:`JournalGap` — the subscriber must fall back to a full snapshot.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.graph.digraph import DynamicDiGraph
from repro.graph.io import atomic_write, read_edge_list, write_edge_list

PathLike = Union[str, Path]

#: Appended records per fsync.
FSYNC_EVERY = 64


class JournalError(RuntimeError):
    """Base class for journal failures."""


class JournalCorrupt(JournalError):
    """The journal has an undecodable record before its final line."""


class JournalReplayError(JournalError):
    """The journal cannot be replayed onto the base it was given: the
    base graph is not the checkpoint the header names, there is no base
    for a journal opened past version 0, or replay produced a graph
    whose version disagrees with the records."""


class JournalGap(JournalError):
    """The journal no longer holds the records a tailer needs: compaction
    discarded versions past the tailer's resume point. Recoverable only by
    re-seeding from a full snapshot."""


@dataclass
class ReplayResult:
    """What :func:`replay` recovered."""

    #: The rebuilt graph, version counter realigned to the last record.
    graph: DynamicDiGraph
    #: The last durably recorded version (== ``graph.version``).
    version: int
    #: Mutation records applied.
    applied: int
    #: Whether a torn (partially written) final line was discarded.
    torn_tail: bool
    #: The checkpoint path named by the header, if any.
    checkpoint: Optional[str] = None


class UpdateJournal:
    """An append-only write-ahead journal for one dynamic graph.

    Opening an empty (or absent) file writes the header; opening an
    existing journal resumes appending after its last record, first
    cutting a torn final line (a crash mid-append: that record never
    committed, and replay drops it) so the next record starts a line of
    its own instead of joining the torn one. The journal
    is oblivious to *who* mutates the graph — callers append a record for
    every effective mutation they apply, stamped with the resulting
    graph version (the serving engine does this inside its write lock, so
    journal order is exactly version order).
    """

    def __init__(self, path: PathLike, graph_version: int = 0) -> None:
        self.path = Path(path)
        self._pending = 0
        self._records = 0
        self._syncs = 0
        fresh = not self.path.exists() or _cut_torn_tail(self.path) == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_header(graph_version)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def record_insert(self, u: int, v: int, version: int) -> None:
        """Journal an applied edge insertion (``version`` = post-apply)."""
        self._append({"op": "+", "u": u, "v": v, "ver": version})

    def record_delete(self, u: int, v: int, version: int) -> None:
        """Journal an applied edge deletion (``version`` = post-apply)."""
        self._append({"op": "-", "u": u, "v": v, "ver": version})

    def _append(self, record: dict) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._records += 1
        self._pending += 1
        if self._pending >= FSYNC_EVERY:
            self.flush()

    def _write_header(self, version: int) -> None:
        header = {"op": "open", "ver": version, "ckpt": None}
        self._handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        self.flush()

    def flush(self) -> None:
        """Force buffered records to stable storage (fsync)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if self._pending:
            self._syncs += 1
        self._pending = 0

    def publish(self) -> None:
        """Make buffered records visible to tailers without an fsync.

        Replication wants freshness, durability wants batched fsyncs;
        flushing the userspace buffer (no sync) serves the first without
        paying for the second — a :class:`JournalTailer` on the same host
        sees the records immediately, and the :data:`FSYNC_EVERY` durability
        contract is unchanged.
        """
        if not self._handle.closed:
            self._handle.flush()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def checkpoint(self, graph: DynamicDiGraph, snapshot_path: PathLike) -> None:
        """Compact: snapshot ``graph`` atomically and restart the journal.

        Crash-ordering: the snapshot is durably renamed into place
        *before* the journal is truncated, and the truncated journal is
        itself replaced atomically — at every instant either the old
        journal (still replayable from its own base) or the new
        journal + snapshot pair exists. A relative ``snapshot_path`` is
        stored relative to the journal's directory, where
        :func:`replay` resolves it.

        The snapshot the live header names is never written over: when
        it is ``snapshot_path``, the new snapshot goes to its twin
        ``<name>.alt`` (and back again on the next checkpoint), and the
        superseded one is unlinked only once the new header is durable.
        """
        snapshot_path = Path(snapshot_path)
        twin = snapshot_path.with_name(snapshot_path.name + ".alt")
        pair = (snapshot_path.resolve(), twin.resolve())
        live = self._live_checkpoint()
        if live == pair[0]:
            snapshot_path = twin
        write_edge_list(graph, snapshot_path, atomic=True)
        self.flush()
        self._handle.close()
        with atomic_write(self.path) as handle:
            header = {
                "op": "open",
                "ver": graph.version,
                "ckpt": str(snapshot_path)
                if snapshot_path.is_absolute()
                else os.path.relpath(snapshot_path, self.path.parent),
            }
            handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._pending = 0
        if live in pair:
            live.unlink(missing_ok=True)

    def _live_checkpoint(self) -> Optional[Path]:
        """The snapshot the journal's header names, resolved, or ``None``."""
        with open(self.path, encoding="utf-8") as handle:
            ckpt = json.loads(handle.readline()).get("ckpt")
        return (self.path.parent / ckpt).resolve() if ckpt else None

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._handle.closed:
            return
        self.flush()
        self._handle.close()

    def __enter__(self) -> "UpdateJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def records_written(self) -> int:
        return self._records

    @property
    def sync_count(self) -> int:
        """Batched fsyncs issued (excluding record-free flushes)."""
        return self._syncs


def _cut_torn_tail(path: Path) -> int:
    """Truncate ``path`` to just after its last newline; returns the size.

    Scans back from the end in blocks, so the cost is the torn line's
    length, not the journal's.
    """
    with open(path, "r+b") as handle:
        size = end = handle.seek(0, os.SEEK_END)
        while end > 0:
            start = max(end - 4096, 0)
            handle.seek(start)
            cut = handle.read(end - start).rfind(b"\n")
            if cut >= 0:
                end = start + cut + 1
                break
            end = start
        if end < size:
            handle.truncate(end)
            os.fsync(handle.fileno())
    return end


def replay(
    path: PathLike, base_graph: Optional[DynamicDiGraph] = None
) -> ReplayResult:
    """Rebuild the graph a journal describes.

    A header that names a checkpoint (resolved relative to the journal's
    directory) makes that checkpoint the base: a ``base_graph`` given too
    must equal it, vertices and edges, or :class:`JournalReplayError`
    names the checkpoint, as it does when the checkpoint cannot be
    read. Otherwise ``base_graph`` supplies the base state
    (the graph as it was at header time), and failing that the base is
    the empty graph. That is only right for a journal opened at version
    0: one opened later, with neither base, raises
    :class:`JournalReplayError` naming the journal instead of replaying
    onto a graph it never described.

    The rebuilt graph's version counter is realigned to the last record's
    stamp via :meth:`~repro.graph.digraph.DynamicDiGraph.restore_version`,
    so version-keyed derived state (cache entries, pruner stamps) written
    before the crash compares correctly after recovery.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise JournalCorrupt(f"{path}: empty journal (missing header)")

    records = []
    torn = False
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if i == len(lines) - 1:
                torn = True  # crash mid-append; the record never committed
                break
            raise JournalCorrupt(f"{path}: undecodable record at line {i + 1}")

    if not records:
        raise JournalCorrupt(f"{path}: no complete header")
    header = records[0]
    if header.get("op") != "open":
        raise JournalCorrupt(f"{path}: first record is not a header")
    base_version = int(header.get("ver", 0))
    ckpt = header.get("ckpt")

    graph = base_graph
    if ckpt:
        ckpt_path = Path(ckpt)
        if not ckpt_path.is_absolute():
            ckpt_path = path.parent / ckpt_path
        try:
            graph = read_edge_list(ckpt_path)
        except (OSError, ValueError) as exc:
            raise JournalReplayError(
                f"{path}: cannot read the checkpoint {ckpt} the journal "
                f"replays on: {exc}"
            ) from exc
        if base_graph is not None and base_graph != graph:
            raise JournalReplayError(
                f"{path}: the base graph is not the checkpoint {ckpt} the "
                f"journal replays on"
            )
    if graph is None:
        if base_version > 0:
            raise JournalReplayError(
                f"{path}: the journal opens at version {base_version} with "
                f"no checkpoint and no base graph to replay on"
            )
        graph = DynamicDiGraph()
    if graph.version > base_version:
        raise JournalReplayError(
            f"{path}: base graph at version {graph.version} is ahead of the "
            f"journal's base version {base_version}"
        )
    graph.restore_version(base_version)

    applied = 0
    last_version = base_version
    for record in records[1:]:
        op = record.get("op")
        u, v, ver = record["u"], record["v"], record["ver"]
        if ver <= last_version:
            raise JournalCorrupt(
                f"{path}: non-monotone version stamp {ver} after {last_version}"
            )
        if op == "+":
            graph.add_edge(u, v)
        elif op == "-":
            graph.remove_edge(u, v)
        else:
            raise JournalCorrupt(f"{path}: unknown op {op!r}")
        applied += 1
        last_version = ver

    if graph.version > last_version:
        raise JournalReplayError(
            f"{path}: replay reached version {graph.version} past the last "
            f"record's {last_version} — base graph does not match the journal"
        )
    graph.restore_version(last_version)
    return ReplayResult(
        graph=graph,
        version=last_version,
        applied=applied,
        torn_tail=torn,
        checkpoint=ckpt,
    )


class JournalTailer:
    """Incrementally read a journal that another thread/process appends to.

    ``poll()`` returns every *complete, new* mutation record since the
    last call, in order, each exactly once:

    * a torn tail (the writer is mid-append, or the crash model's
      arbitrary byte boundary) stays buffered until the line completes —
      a record is never yielded partially and never yielded twice;
    * headers are consumed silently, but a header whose base version is
      ahead of the tailer's resume point means compaction discarded
      records this tailer still needed — that raises :class:`JournalGap`;
    * compaction mid-tail (the file is atomically replaced) is followed:
      the tailer drains the replaced file it still holds open, reopens
      the new one, and version-stamp dedup skips anything already seen;
    * records at or below ``after_version`` are skipped, which makes
      reconnect/resume exact: a replica that reconnects with its
      watermark never re-applies a record.

    The tailer never fsyncs and never writes; it is safe against a live
    :class:`UpdateJournal` on the same path (pair it with
    :meth:`UpdateJournal.publish` for sub-batch freshness).
    """

    def __init__(self, path: PathLike, after_version: int = 0) -> None:
        self.path = Path(path)
        self.last_version = after_version
        self._handle = None
        self._inode: Optional[int] = None
        self._buffer = b""
        self._open()

    def _open(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self.path, "rb")
        self._inode = os.fstat(self._handle.fileno()).st_ino
        self._buffer = b""

    def _consume(self, data: bytes, out: list) -> None:
        self._buffer += data
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                return  # torn tail: wait for the writer to finish the line
            line = self._buffer[:newline]
            self._buffer = self._buffer[newline + 1:]
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A *complete* line that does not decode is corruption,
                # not a torn tail — the newline proves the writer was done.
                raise JournalCorrupt(
                    f"{self.path}: undecodable record in tail"
                )
            if record.get("op") == "open":
                base = int(record.get("ver", 0))
                if base > self.last_version:
                    raise JournalGap(
                        f"{self.path}: compacted to base version {base} past "
                        f"tail position {self.last_version}"
                    )
                continue
            ver = record.get("ver")
            if ver is None:
                raise JournalCorrupt(f"{self.path}: record without version")
            if ver <= self.last_version:
                continue  # already streamed (reopen / resume overlap)
            out.append(record)
            self.last_version = ver

    def poll(self) -> list:
        """All complete records appended since the last poll (maybe [])."""
        if self._handle is None:
            raise JournalError("tailer is closed")
        records: list = []
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            stat = None
        rotated = stat is None or stat.st_ino != self._inode
        # Drain whatever the current handle can still see. After an
        # atomic compaction rename the old inode stays readable through
        # this handle, so nothing written before the rename is lost.
        self._consume(self._handle.read(), records)
        if rotated and stat is not None:
            # checkpoint() flushes before renaming, so the replaced file
            # ended on a record boundary; a leftover partial line would be
            # a record that never committed — drop it with the old file.
            self._open()
            self._consume(self._handle.read(), records)
        return records

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalTailer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
