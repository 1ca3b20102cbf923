"""Journal tailing under concurrent append: the replication substrate.

These tests drive :class:`repro.graph.journal.JournalTailer` against a
live :class:`UpdateJournal` the way ``repro.net`` does: a writer
appending (sometimes from another thread, sometimes torn mid-record)
while the tailer polls, with checkpoint compaction landing mid-tail.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.graph.journal as journal_module
from repro.graph.digraph import DynamicDiGraph
from repro.graph.journal import (
    JournalCorrupt,
    JournalGap,
    JournalTailer,
    UpdateJournal,
    replay,
)


@pytest.fixture(autouse=True)
def _no_fsync_flushes(monkeypatch):
    # No fsync inside a test, so visibility comes from publish(), not
    # fsync — the regime replication actually runs in.
    monkeypatch.setattr(journal_module, "FSYNC_EVERY", 1000)


def _journal(tmp_path, graph):
    return UpdateJournal(tmp_path / "tail.wal", graph_version=graph.version)


def _apply_insert(graph, journal, u, v):
    assert graph.add_edge(u, v)
    journal.record_insert(u, v, graph.version)


def test_poll_sees_published_records_incrementally(tmp_path):
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    with JournalTailer(journal.path) as tailer:
        assert tailer.poll() == []
        _apply_insert(graph, journal, 0, 1)
        journal.publish()
        records = tailer.poll()
        assert [(r["u"], r["v"]) for r in records] == [(0, 1)]
        assert tailer.last_version == graph.version
        # Nothing new: poll is idempotent between appends.
        assert tailer.poll() == []
        _apply_insert(graph, journal, 1, 2)
        _apply_insert(graph, journal, 2, 3)
        journal.publish()
        assert [(r["u"], r["v"]) for r in tailer.poll()] == [(1, 2), (2, 3)]
    journal.close()


def test_unpublished_records_invisible_until_flush(tmp_path):
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    with JournalTailer(journal.path) as tailer:
        tailer.poll()
        _apply_insert(graph, journal, 0, 1)
        # Buffered in the writer's userspace buffer: not visible yet.
        assert tailer.poll() == []
        journal.publish()
        assert len(tailer.poll()) == 1
    journal.close()


def test_torn_tail_mid_record_buffers_until_complete(tmp_path):
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    _apply_insert(graph, journal, 0, 1)
    journal.close()
    tailer = JournalTailer(journal.path)
    assert len(tailer.poll()) == 1
    # A writer crash/preemption mid-append: half a record, no newline.
    record = json.dumps({"op": "+", "u": 1, "v": 2, "ver": graph.version + 3})
    with open(journal.path, "ab") as raw:
        raw.write(record[:10].encode())
        raw.flush()
    assert tailer.poll() == []  # torn tail stays buffered, never yielded
    with open(journal.path, "ab") as raw:
        raw.write(record[10:].encode() + b"\n")
        raw.flush()
    done = tailer.poll()
    assert [(r["u"], r["v"]) for r in done] == [(1, 2)]
    tailer.close()


def test_complete_undecodable_line_is_corruption(tmp_path):
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    journal.close()
    with open(journal.path, "ab") as raw:
        raw.write(b"{not json}\n")
    tailer = JournalTailer(journal.path)
    with pytest.raises(JournalCorrupt):
        tailer.poll()
    tailer.close()


def test_concurrent_append_from_writer_thread(tmp_path):
    """Tail while another thread appends: every record exactly once,
    in version order, despite arbitrary interleavings."""
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    total = 200
    done = threading.Event()

    def writer():
        for i in range(total):
            _apply_insert(graph, journal, i, i + 1)
            journal.publish()
        done.set()

    thread = threading.Thread(target=writer)
    seen = []
    with JournalTailer(journal.path) as tailer:
        thread.start()
        while True:
            seen.extend(tailer.poll())
            if done.is_set():
                seen.extend(tailer.poll())
                break
        thread.join()
    journal.close()
    assert [(r["u"], r["v"]) for r in seen] == [(i, i + 1) for i in range(total)]
    versions = [r["ver"] for r in seen]
    assert versions == sorted(set(versions))  # strictly increasing, no dups


def test_resume_after_version_skips_already_applied(tmp_path):
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    for i in range(5):
        _apply_insert(graph, journal, i, i + 1)
    journal.publish()
    with JournalTailer(journal.path) as tailer:
        first = tailer.poll()
    watermark = first[2]["ver"]
    # A reconnecting replica resumes at its watermark: the first three
    # records must not be re-yielded, the remaining two must all appear.
    with JournalTailer(journal.path, after_version=watermark) as tailer:
        rest = tailer.poll()
    assert [(r["u"], r["v"]) for r in rest] == [(3, 4), (4, 5)]
    journal.close()


def test_checkpoint_compaction_during_active_tail(tmp_path):
    """Compaction mid-tail: the tailer follows the rename and keeps
    streaming, yielding no duplicates and losing no records."""
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    with JournalTailer(journal.path) as tailer:
        for i in range(4):
            _apply_insert(graph, journal, i, i + 1)
        journal.publish()
        before = tailer.poll()
        assert len(before) == 4
        # Compact: journal restarts with a header at the current version.
        journal.checkpoint(graph, tmp_path / "tail.ckpt")
        _apply_insert(graph, journal, 100, 101)
        journal.publish()
        after = tailer.poll()
        assert [(r["u"], r["v"]) for r in after] == [(100, 101)]
        # The stream as a whole replays to the writer's exact graph.
        assert tailer.last_version == graph.version
    journal.close()


def test_compaction_with_unconsumed_records_still_complete(tmp_path):
    """Records written before a compaction but not yet polled are
    drained from the replaced file (the old inode stays readable)."""
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    with JournalTailer(journal.path) as tailer:
        tailer.poll()
        for i in range(3):
            _apply_insert(graph, journal, i, i + 1)
        # No poll between append and checkpoint: the tailer must drain
        # the replaced file before following the rename.
        journal.checkpoint(graph, tmp_path / "tail.ckpt")
        _apply_insert(graph, journal, 50, 51)
        journal.publish()
        records = tailer.poll()
    journal.close()
    assert [(r["u"], r["v"]) for r in records] == [
        (0, 1), (1, 2), (2, 3), (50, 51),
    ]


def test_lagging_tailer_hits_gap_after_compaction(tmp_path):
    """A tailer whose resume point was compacted away gets JournalGap,
    not a silently incomplete stream."""
    graph = DynamicDiGraph()
    journal = _journal(tmp_path, graph)
    for i in range(5):
        _apply_insert(graph, journal, i, i + 1)
    journal.checkpoint(graph, tmp_path / "tail.ckpt")
    journal.close()
    # Resume point 0 predates the compacted base version.
    tailer = JournalTailer(journal.path, after_version=0)
    with pytest.raises(JournalGap):
        tailer.poll()
    tailer.close()


def test_tailed_stream_replays_to_writer_graph(tmp_path):
    """End to end: applying the tailed records to a copy of the base
    graph reproduces the writer's graph, version included — the exact
    contract replica replay depends on."""
    graph = DynamicDiGraph([(0, 1), (1, 2)])
    base = graph.copy()
    recovery_base = graph.copy()
    journal = _journal(tmp_path, graph)
    with JournalTailer(journal.path, after_version=graph.version) as tailer:
        _apply_insert(graph, journal, 2, 3)
        assert graph.remove_edge(0, 1)
        journal.record_delete(0, 1, graph.version)
        _apply_insert(graph, journal, 3, 0)
        journal.publish()
        records = tailer.poll()
    journal.close()
    for record in records:
        if record["op"] == "+":
            base.add_edge(record["u"], record["v"])
        else:
            base.remove_edge(record["u"], record["v"])
        assert base.version == record["ver"]
    assert base == graph
    assert base.version == graph.version
    # And the journal itself recovers to the same state.
    recovered = replay(journal.path, recovery_base).graph
    assert recovered == graph
