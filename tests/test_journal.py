"""Tests for the crash-safe update journal (`repro.graph.journal`).

The contract under test: ``replay()`` of a journal restores the exact
pre-crash graph — edge set *and* version counter — because every record
is version-stamped and version arithmetic is deterministic. The crash
model is "the process dies at an arbitrary byte boundary": a torn final
line must be tolerated, any earlier corruption must be loudly rejected.
"""

from __future__ import annotations

import json
import os
import random
import stat

import pytest

import repro.graph.journal as journal_module
from repro.graph.digraph import DynamicDiGraph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.journal import (
    JournalCorrupt,
    JournalReplayError,
    UpdateJournal,
    replay,
)


def _journaled_churn(journal, graph, ops):
    """Apply ``ops`` (+/-, u, v) to ``graph``, journaling effective ones."""
    for op, u, v in ops:
        if op == "+":
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                journal.record_insert(u, v, graph.version)
        else:
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
                journal.record_delete(u, v, graph.version)


def _random_ops(rng, n, count, bias=0.7):
    return [
        (
            "+" if rng.random() < bias else "-",
            rng.randrange(n),
            rng.randrange(n),
        )
        for _ in range(count)
    ]


def _ops_without_self_loops(rng, n, count, bias=0.7):
    ops = []
    while len(ops) < count:
        op, u, v = ("+" if rng.random() < bias else "-",
                    rng.randrange(n), rng.randrange(n))
        if u != v:
            ops.append((op, u, v))
    return ops


class TestRoundTrip:
    def test_empty_journal_replays_empty_graph(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with UpdateJournal(path):
            pass
        result = replay(path)
        assert result.applied == 0
        assert result.graph.num_edges == 0
        assert result.graph.version == 0

    def test_replay_restores_edges_and_version(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        rng = random.Random(11)
        graph = DynamicDiGraph()
        with UpdateJournal(path) as journal:
            _journaled_churn(journal, graph, _ops_without_self_loops(rng, 40, 300))
        result = replay(path)
        assert sorted(result.graph.edges()) == sorted(graph.edges())
        assert result.graph.version == graph.version
        assert result.applied == journal.records_written

    def test_replay_onto_nonempty_base(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        base_edges = [(0, 1), (1, 2), (2, 3)]
        graph = DynamicDiGraph(edges=base_edges)
        base_version = graph.version
        with UpdateJournal(path, graph_version=base_version) as journal:
            graph.add_edge(3, 4)
            journal.record_insert(3, 4, graph.version)
            graph.remove_edge(0, 1)
            journal.record_delete(0, 1, graph.version)
        result = replay(path, DynamicDiGraph(edges=base_edges))
        assert sorted(result.graph.edges()) == sorted(graph.edges())
        assert result.graph.version == graph.version

    def test_reopen_appends_not_truncates(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        graph = DynamicDiGraph()
        with UpdateJournal(path) as journal:
            graph.add_edge(0, 1)
            journal.record_insert(0, 1, graph.version)
        with UpdateJournal(path, graph_version=graph.version) as journal:
            graph.add_edge(1, 2)
            journal.record_insert(1, 2, graph.version)
        result = replay(path)
        assert sorted(result.graph.edges()) == [(0, 1), (1, 2)]
        assert result.graph.version == graph.version


class TestCrashTolerance:
    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        rng = random.Random(5)
        graph = DynamicDiGraph()
        with UpdateJournal(path) as journal:
            _journaled_churn(journal, graph, _ops_without_self_loops(rng, 30, 120))
        whole = path.read_bytes()
        # Chop mid-way through the last record: a crash between write()
        # and the filesystem persisting the full line.
        torn = whole[: len(whole) - 7]
        path.write_bytes(torn)
        result = replay(path)
        assert result.torn_tail is True
        # Everything before the torn record is intact and exact.
        lines = [l for l in torn.decode().splitlines() if l]
        last_good = json.loads(lines[-2])  # lines[-1] is the torn record
        assert result.graph.version == last_good["ver"]

    def test_corruption_before_tail_is_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        graph = DynamicDiGraph()
        with UpdateJournal(path) as journal:
            for i in range(10):
                graph.add_edge(i, i + 1)
                journal.record_insert(i, i + 1, graph.version)
        lines = path.read_text().splitlines()
        lines[4] = lines[4][:-3]  # torn line *not* at the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt):
            replay(path)

    def test_restart_after_torn_append_keeps_later_updates(self, tmp_path):
        # Crash mid-append, recover, keep appending: the reopened journal
        # cuts the torn line, so the next records do not join it (and get
        # dropped with it as "the torn final line", or corrupt the file).
        path = tmp_path / "wal.jsonl"
        graph = DynamicDiGraph()
        with UpdateJournal(path) as journal:
            for i in range(3):
                graph.add_edge(i, i + 1)
                journal.record_insert(i, i + 1, graph.version)
        path.write_bytes(path.read_bytes()[:-7])
        for u, v in [(3, 0), (4, 5), (5, 6)]:
            graph = replay(path).graph
            with UpdateJournal(path, graph_version=graph.version) as journal:
                graph.add_edge(u, v)
                journal.record_insert(u, v, graph.version)
        result = replay(path)
        assert not result.torn_tail
        assert sorted(result.graph.edges()) == [(0, 1), (1, 2), (3, 0), (4, 5), (5, 6)]
        assert result.graph.version == graph.version

    def test_torn_header_is_corrupt(self, tmp_path):
        # The crash landed inside the header itself: nothing committed,
        # and recovery must say so with the journal's own error.
        path = tmp_path / "wal.jsonl"
        path.write_text('{"op":"open","ver":0,"ck')
        with pytest.raises(JournalCorrupt):
            replay(path)

    def test_missing_header_is_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"op":"+","u":0,"v":1,"ver":2}\n')
        with pytest.raises(JournalCorrupt):
            replay(path)

    def test_base_graph_newer_than_journal_is_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with UpdateJournal(path, graph_version=0) as journal:
            journal.record_insert(0, 1, 2)
        newer = DynamicDiGraph(edges=[(0, 1), (1, 2)])  # version > 0
        with pytest.raises(JournalReplayError):
            replay(path, newer)

    def test_kill_and_recover_stress(self, tmp_path, monkeypatch):
        """The headline guarantee: kill at arbitrary byte offsets, recover.

        One long churn is journaled; the 'crash' is simulated by
        truncating the journal file at byte offsets chosen inside the
        final record. Replay must restore a graph identical to the state
        the journal knowably covers: the last fully persisted record.
        """
        rng = random.Random(99)
        path = tmp_path / "wal.jsonl"
        graph = DynamicDiGraph()
        # Track the graph state after every journaled record so any
        # truncation point can name its expected recovery target.
        states = {0: (frozenset(), 0)}
        monkeypatch.setattr(journal_module, "FSYNC_EVERY", 8)
        with UpdateJournal(path) as journal:
            for op, u, v in _ops_without_self_loops(rng, 25, 200):
                if op == "+" and not graph.has_edge(u, v):
                    graph.add_edge(u, v)
                    journal.record_insert(u, v, graph.version)
                elif op == "-" and graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                    journal.record_delete(u, v, graph.version)
                else:
                    continue
                states[graph.version] = (
                    frozenset(graph.edges()),
                    graph.version,
                )
        whole = path.read_bytes()
        for cut in [len(whole), len(whole) - 3, len(whole) - 25, len(whole) // 2]:
            crash = tmp_path / f"crash-{cut}.jsonl"
            crash.write_bytes(whole[:cut])
            result = replay(crash)
            expected_edges, expected_version = states[result.graph.version]
            assert frozenset(result.graph.edges()) == expected_edges
            assert result.graph.version == expected_version
        # The uncut journal recovers the exact final state.
        final = replay(path)
        assert frozenset(final.graph.edges()) == frozenset(graph.edges())
        assert final.graph.version == graph.version


class TestCheckpoint:
    def test_checkpoint_compacts_and_replays(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        snap = tmp_path / "snap.txt"
        rng = random.Random(21)
        graph = DynamicDiGraph()
        with UpdateJournal(path) as journal:
            _journaled_churn(journal, graph, _ops_without_self_loops(rng, 30, 150))
            pre_checkpoint_size = path.stat().st_size
            journal.checkpoint(graph, snap)
            assert path.stat().st_size < pre_checkpoint_size
            # Churn continues after compaction.
            _journaled_churn(journal, graph, _ops_without_self_loops(rng, 30, 60))
        result = replay(path)
        assert result.checkpoint is not None
        assert sorted(result.graph.edges()) == sorted(graph.edges())
        assert result.graph.version == graph.version

    def test_every_rename_is_made_durable_by_syncing_its_directory(
        self, tmp_path, monkeypatch
    ):
        # A rename is durable only once its directory is fsynced: the
        # snapshot's (here in its own directory) and the journal's.
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            replace(src, dst)
            events.append(("rename", True, os.stat(os.path.dirname(dst)).st_ino))

        (tmp_path / "snaps").mkdir()
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        with UpdateJournal(tmp_path / "wal.jsonl", graph_version=graph.version) as journal:
            monkeypatch.setattr(os, "fsync", recording_fsync)
            monkeypatch.setattr(os, "replace", recording_replace)
            journal.checkpoint(graph, tmp_path / "snaps" / "snap.txt")
        renames = [i for i, event in enumerate(events) if event[0] == "rename"]
        assert len(renames) == 2
        for at, until in zip(renames, renames[1:] + [len(events)]):
            parent = events[at][2]
            assert ("fsync", True, parent) in events[at + 1:until], events

    def test_checkpoint_alone_restores_state(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        snap = tmp_path / "snap.txt"
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        with UpdateJournal(path, graph_version=graph.version) as journal:
            journal.checkpoint(graph, snap)
        result = replay(path)
        assert sorted(result.graph.edges()) == sorted(graph.edges())
        assert result.graph.version == graph.version

    def test_a_checkpointed_journal_replays_on_its_checkpoint(self, tmp_path):
        # A base graph handed in beside a checkpoint that is not that
        # checkpoint used to be replayed on silently: here the records
        # after the checkpoint landed on the two-edge list and recovery
        # returned two edges instead of six, at the journal's version.
        path, snap, listed = (
            tmp_path / "wal.jsonl", tmp_path / "snap.txt", tmp_path / "g.txt"
        )
        write_edge_list(DynamicDiGraph(edges=[(0, 1), (1, 2)]), listed)
        graph = read_edge_list(listed)
        with UpdateJournal(path, graph_version=graph.version) as journal:
            _journaled_churn(
                journal, graph, [("+", 2, 3), ("+", 3, 4), ("+", 4, 5), ("+", 5, 6)]
            )
            journal.checkpoint(graph, snap)
            _journaled_churn(journal, graph, [("-", 1, 2), ("+", 0, 2)])
        with pytest.raises(JournalReplayError, match="snap.txt"):
            replay(path, read_edge_list(listed))
        result = replay(path, read_edge_list(snap))
        assert sorted(result.graph.edges()) == sorted(graph.edges())
        assert result.graph.num_edges == 6
        assert result.version == graph.version

    def test_a_relative_checkpoint_path_resolves_beside_the_journal(
        self, tmp_path, monkeypatch
    ):
        # Both paths relative to the working directory, the journal in a
        # subdirectory: the header must name the checkpoint as replay
        # resolves it, relative to the journal's own directory.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2)])
        with UpdateJournal("data/wal.jsonl", graph_version=graph.version) as journal:
            journal.checkpoint(graph, "data/snap.txt")
            _journaled_churn(journal, graph, [("+", 2, 3)])
        result = replay("data/wal.jsonl")
        assert sorted(result.graph.edges()) == sorted(graph.edges())
        assert result.version == graph.version

    def test_a_journal_past_version_zero_needs_a_base(self, tmp_path):
        # Opened on a three-edge graph at version 9 and closed before any
        # checkpoint: the header names no base, so replay must refuse
        # instead of answering with an empty graph at version 9.
        path = tmp_path / "wal.jsonl"
        graph = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 3)])
        graph.restore_version(9)
        UpdateJournal(path, graph_version=graph.version).close()
        with pytest.raises(JournalReplayError, match="wal.jsonl"):
            replay(path)
        result = replay(path, graph.copy())
        assert result.graph == graph and result.version == 9

    def test_a_checkpoint_to_the_live_snapshot_path_survives_a_crash(
        self, tmp_path, monkeypatch
    ):
        # A replica checkpoints to the same path every time. Renaming the
        # new snapshot onto the one the live header names, then crashing
        # before the journal is replaced, used to leave the first
        # checkpoint's header over the second's snapshot: replay refused
        # ("base graph at version 30 is ahead of the journal's base
        # version 17").
        path, snap = tmp_path / "wal.jsonl", tmp_path / "wal.ckpt"
        rng = random.Random(8)
        graph = DynamicDiGraph()
        with UpdateJournal(path) as journal:
            _journaled_churn(journal, graph, _ops_without_self_loops(rng, 12, 11))
            journal.checkpoint(graph, snap)
            _journaled_churn(journal, graph, _ops_without_self_loops(rng, 12, 14))

            def crash(target):
                raise OSError("crashed before the journal was replaced")

            monkeypatch.setattr(journal_module, "atomic_write", crash)
            with pytest.raises(OSError, match="crashed"):
                journal.checkpoint(graph, snap)
        result = replay(path)
        assert result.graph == graph and result.version == graph.version
        monkeypatch.undo()
        # Checkpoints to one path alternate between it and its twin; the
        # superseded snapshot goes once the new header is durable.
        with UpdateJournal(path) as journal:
            for expected in ("wal.ckpt.alt", "wal.ckpt", "wal.ckpt.alt"):
                _journaled_churn(journal, graph, _ops_without_self_loops(rng, 12, 5))
                journal.checkpoint(graph, snap)
                assert os.path.basename(replay(path).checkpoint) == expected
                assert sorted(p.name for p in tmp_path.glob("wal.ckpt*")) == [expected]
        result = replay(path)
        assert result.graph == graph and result.version == graph.version

    def test_a_missing_checkpoint_raises_naming_it(self, tmp_path):
        path, snap = tmp_path / "wal.jsonl", tmp_path / "snap.txt"
        graph = DynamicDiGraph(edges=[(0, 1)])
        with UpdateJournal(path, graph_version=graph.version) as journal:
            journal.checkpoint(graph, snap)
        snap.unlink()
        with pytest.raises(JournalReplayError, match="snap.txt"):
            replay(path, graph)


class TestRestoreVersion:
    def test_restore_is_monotone(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        v = g.version
        g.restore_version(v + 10)
        assert g.version == v + 10
        with pytest.raises(ValueError):
            g.restore_version(v)  # backwards: refused

    def test_restore_invalidates_csr(self):
        g = DynamicDiGraph(edges=[(0, 1)])
        g.csr()
        assert g.csr(build=False) is not None
        g.restore_version(g.version + 1)
        assert g.csr(build=False) is None
