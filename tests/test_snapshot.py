"""Tests for frozen CSR snapshots."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicDiGraph
from repro.graph.snapshot import _ALIGN, ARRAY_FIELDS, CSRSnapshot

from tests.conftest import random_graph
from tests.oracles import thaw


class TestFreezeThaw:
    def test_round_trip(self):
        g = random_graph(30, 90, seed=1)
        snap = CSRSnapshot.freeze(g)
        assert snap.num_vertices == g.num_vertices
        assert snap.num_edges == g.num_edges
        assert thaw(snap) == g

    def test_adjacency_matches(self):
        g = random_graph(20, 50, seed=2)
        snap = CSRSnapshot.freeze(g)
        for v in g.vertices():
            assert sorted(snap.out_neighbors(v)) == sorted(g.out_neighbors(v))
            assert sorted(snap.in_neighbors(v)) == sorted(g.in_neighbors(v))
            assert snap.out_degree(v) == g.out_degree(v)
            assert snap.in_degree(v) == g.in_degree(v)

    def test_sparse_id_space(self):
        g = DynamicDiGraph(edges=[(1000, 5), (5, 70000)])
        snap = CSRSnapshot.freeze(g)
        assert snap.has_vertex(70000)
        assert snap.out_neighbors(1000) == [5]
        assert thaw(snap) == g

    def test_edges_iteration(self):
        g = DynamicDiGraph(edges=[(0, 1), (1, 2), (2, 0)])
        snap = CSRSnapshot.freeze(g)
        assert set(snap.edges()) == set(g.edges())

    def test_empty_graph(self):
        snap = CSRSnapshot.freeze(DynamicDiGraph())
        assert snap.num_vertices == 0
        assert snap.num_edges == 0
        assert thaw(snap) == DynamicDiGraph()


class TestRowLookups:
    """``rows_of``: rows plus membership for ids that may be strangers,
    whichever shape the id table has; ``indices_of`` takes arrays."""

    @pytest.mark.parametrize(
        "ids",
        [list(range(12)), [3, 8, 9, 40, 41, 1000], [40, 3, 1000, 9]],
        ids=["ids-are-rows", "sorted-sparse", "unsorted"],
    )
    def test_rows_of_matches_index_of(self, ids):
        empty = np.zeros(0, dtype=np.int64)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        snap = CSRSnapshot(
            np.array(ids, dtype=np.int64), offsets, empty, offsets, empty
        )
        probes = np.array(
            ids + [-1, 2, 11, 12, 39, 42, 999, 1001, 2**62, -(2**62)],
            dtype=np.int64,
        )
        rows, known = snap.rows_of(probes)
        assert known.tolist() == [snap.has_vertex(v) for v in probes.tolist()]
        for v, row, ok in zip(probes.tolist(), rows.tolist(), known.tolist()):
            assert 0 <= row < len(ids)
            if ok:
                assert row == snap.index_of(v)
        inside = np.array(ids[::-1], dtype=np.int64)
        assert snap.indices_of(inside).tolist() == snap.indices_of(ids[::-1]).tolist()

    def test_rows_of_on_the_empty_snapshot(self):
        snap = CSRSnapshot.freeze(DynamicDiGraph())
        rows, known = snap.rows_of(np.array([0, 5], dtype=np.int64))
        assert rows.tolist() == [0, 0] and known.tolist() == [False, False]


class TestPersistence:
    def test_equality_detects_difference(self):
        a = CSRSnapshot.freeze(DynamicDiGraph(edges=[(0, 1)]))
        b = CSRSnapshot.freeze(DynamicDiGraph(edges=[(1, 0)]))
        assert a != b
        assert a != 7

    def test_repr(self):
        snap = CSRSnapshot.freeze(DynamicDiGraph(edges=[(0, 1)]))
        assert repr(snap) == "CSRSnapshot(n=2, m=1)"


class TestBuffers:
    """``to_buffers``/``pack_into``/``from_buffers`` — the shared-memory
    publish/attach layout used by :mod:`repro.shard.memory`."""

    def _round_trip(self, snap):
        manifest, _ = snap.to_buffers()
        buffer = bytearray(int(manifest["total_bytes"]))
        manifest = snap.pack_into(buffer)
        return CSRSnapshot.from_buffers(manifest, buffer), buffer, manifest

    def test_round_trip_equality(self):
        g = random_graph(40, 120, seed=11)
        snap = CSRSnapshot.freeze(g)
        rebuilt, _, _ = self._round_trip(snap)
        assert rebuilt == snap
        assert thaw(rebuilt) == g

    def test_manifest_shape(self):
        snap = CSRSnapshot.freeze(random_graph(10, 25, seed=4))
        manifest, arrays = snap.to_buffers()
        names = [f["name"] for f in manifest["fields"]]
        assert tuple(names) == ARRAY_FIELDS
        for field, arr in zip(manifest["fields"], arrays):
            assert field["offset"] % _ALIGN == 0
            assert field["nbytes"] == arr.nbytes
            assert field["dtype"] == arr.dtype.str
        assert manifest["total_bytes"] >= sum(a.nbytes for a in arrays)

    def test_dtypes_preserved(self):
        snap = CSRSnapshot.freeze(random_graph(15, 40, seed=5))
        rebuilt, _, _ = self._round_trip(snap)
        for name in ARRAY_FIELDS:
            assert getattr(rebuilt, name).dtype == getattr(snap, name).dtype

    def test_views_are_zero_copy_and_read_only(self):
        snap = CSRSnapshot.freeze(DynamicDiGraph(edges=[(0, 1), (1, 2)]))
        rebuilt, buffer, manifest = self._round_trip(snap)
        assert not rebuilt.out_targets.flags.writeable
        with pytest.raises(ValueError):
            rebuilt.out_targets[0] = 99
        # Mutating the backing buffer shows through: the views alias it.
        field = next(
            f for f in manifest["fields"] if f["name"] == "vertex_ids"
        )
        before = int(rebuilt.vertex_ids[0])
        np.frombuffer(
            memoryview(buffer), dtype=field["dtype"], count=1,
            offset=int(field["offset"]),
        )[0] = before + 7
        assert int(rebuilt.vertex_ids[0]) == before + 7

    def test_empty_snapshot_needs_one_byte(self):
        snap = CSRSnapshot.freeze(DynamicDiGraph())
        manifest, _ = snap.to_buffers()
        assert manifest["total_bytes"] >= 1
        rebuilt, _, _ = self._round_trip(snap)
        assert rebuilt.num_vertices == 0 and rebuilt.num_edges == 0

    def test_pack_into_rejects_short_buffer(self):
        snap = CSRSnapshot.freeze(random_graph(10, 25, seed=6))
        need = int(snap.to_buffers()[0]["total_bytes"])
        with pytest.raises(ValueError):
            snap.pack_into(bytearray(need - 1))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**5), n=st.integers(1, 20))
    def test_property_buffer_round_trip(self, seed, n):
        g = random_graph(n, 3 * n, seed)
        snap = CSRSnapshot.freeze(g)
        rebuilt, _, _ = self._round_trip(snap)
        assert rebuilt == snap
        assert thaw(rebuilt) == g


class TestProcessKeyedCaches:
    """The fork-hazard guards: snapshot/side-cache keys carry the pid so
    a child process never trusts a parent-era cached view."""

    def test_segment_token_unique_and_pid_keyed(self):
        g = random_graph(8, 16, seed=7)
        a, b = CSRSnapshot.freeze(g), CSRSnapshot.freeze(g)
        assert a.segment_token != b.segment_token
        assert a.segment_token[0] == os.getpid()

    def test_graph_csr_cache_rebuilds_on_foreign_pid(self):
        g = random_graph(12, 30, seed=8)
        first = g.csr()
        assert g.csr() is first  # same version + pid: cached
        version, pid, snap = g._csr_state
        g._csr_state = (version, pid + 1, snap)  # forge a parent-era entry
        second = g.csr()
        assert second is not first
        assert second == first
        assert g.csr() is second

    def test_sweep_targets_rebuild_on_foreign_token(self):
        from repro.graph.bitsearch import _sweep_targets

        snap = CSRSnapshot.freeze(random_graph(12, 30, seed=9))
        first = _sweep_targets(snap)
        assert _sweep_targets(snap) is first
        token, cached = snap._bit_targets_state
        snap._bit_targets_state = ((token[0], token[1] + 1), cached)
        second = _sweep_targets(snap)
        assert second is not first
        assert all(np.array_equal(x, y) for x, y in zip(first, second))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**5), n=st.integers(1, 25))
def test_property_freeze_thaw_identity(seed, n):
    g = random_graph(n, 3 * n, seed)
    assert thaw(CSRSnapshot.freeze(g)) == g
