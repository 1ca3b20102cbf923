"""Frozen CSR snapshots: compact, immutable graph states.

A :class:`CSRSnapshot` freezes a :class:`DynamicDiGraph` into forward and
reverse compressed-sparse-row arrays (numpy int64). Use cases:

* the read view the numpy kernels (:mod:`repro.graph.kernels`,
  :mod:`repro.graph.bitsearch`) run on;
* one raw buffer per snapshot, so shard workers attach it from shared
  memory without copying (:meth:`CSRSnapshot.pack_into`).

Snapshots are read-only by design — mutate the dynamic graph and re-freeze.
Vertex ids are compacted to ``0..n-1`` with the original ids kept in a
lookup table, so graphs with sparse id spaces freeze without waste.
"""

from __future__ import annotations

import os
from itertools import chain, count, repeat
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.graph.digraph import DynamicDiGraph


#: Array attributes in canonical manifest order.
ARRAY_FIELDS = (
    "vertex_ids",
    "out_offsets",
    "out_targets",
    "in_offsets",
    "in_targets",
)

#: Process-local counter feeding :attr:`CSRSnapshot.segment_token`.
_SEGMENT_IDS = count(1)

#: Buffer offsets are rounded up to this alignment so zero-copy views
#: satisfy any dtype's alignment requirement.
_ALIGN = 16


class CSRSnapshot:
    """An immutable CSR view of one graph state."""

    def __init__(
        self,
        vertex_ids: np.ndarray,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        in_offsets: np.ndarray,
        in_targets: np.ndarray,
    ) -> None:
        self.vertex_ids = vertex_ids
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.in_offsets = in_offsets
        self.in_targets = in_targets
        # tolist() yields Python ints in C; the zip/dict pair avoids a
        # per-vertex int() call in what is a hot constructor (the serving
        # engine re-freezes after every update epoch).
        self._index: Dict[int, int] = dict(
            zip(vertex_ids.tolist(), range(len(vertex_ids)))
        )
        # freeze() emits ids sorted; only then can array lookups use
        # searchsorted (load() of a foreign archive might not be sorted).
        self._ids_sorted = bool(
            len(vertex_ids) < 2 or np.all(np.diff(vertex_ids) > 0)
        )
        # Sorted distinct ids spanning exactly 0..n-1: an id is its row.
        n = len(vertex_ids)
        self._ids_are_rows = self._ids_sorted and bool(
            n == 0 or (vertex_ids[0] == 0 and vertex_ids[-1] == n - 1)
        )
        # (pid, serial): identifies *this materialization in this process*.
        # Version-keyed caches that key by snapshot contents or object
        # identity go stale across fork/spawn — a child inheriting the
        # parent's cache entry must rebuild, and a shared-memory attach in
        # a worker must never collide with the primary's entry. Keying by
        # segment_token makes both cases distinct by construction.
        self.segment_token: Tuple[int, int] = (os.getpid(), next(_SEGMENT_IDS))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, graph: DynamicDiGraph) -> "CSRSnapshot":
        """Freeze the current state of a dynamic graph.

        Fully vectorized: offsets come from one ``cumsum`` over the degree
        counts, the target arrays are filled by flattening all adjacency
        lists in one pass and mapping ids to compacted indices with a
        single ``searchsorted``, and the per-vertex neighbor sort (the
        canonical-form guarantee: equal graphs freeze to equal snapshots
        regardless of update history) is one stable ``lexsort`` keyed by
        segment. No per-edge Python iteration anywhere.
        """
        vertices = sorted(graph.vertices())
        n = len(vertices)
        vertex_ids = np.asarray(vertices, dtype=np.int64)
        adj_out = graph.adjacency(True)
        adj_in = graph.adjacency(False)
        # Distinct sorted ids spanning exactly 0..n-1 mean compaction is
        # the identity — no per-edge id remapping needed at all.
        compact = n == 0 or (vertices[0] == 0 and vertices[-1] == n - 1)

        def _direction(adj):
            # map/chain/list keep all per-vertex and per-edge iteration in
            # C; a genexpr + np.fromiter here costs a Python frame per
            # element and dominates the whole freeze.
            lists = list(map(adj.__getitem__, vertices))
            counts = np.fromiter(map(len, lists), dtype=np.int64, count=n)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            raw = np.array(list(chain.from_iterable(lists)), dtype=np.int64)
            targets = raw if compact else np.searchsorted(vertex_ids, raw)
            # Sort neighbors within each vertex's segment: the segment ids
            # are non-decreasing, so a stable sort keyed (segment, target)
            # only permutes within segments.
            segments = np.repeat(np.arange(n, dtype=np.int64), counts)
            targets = targets[np.lexsort((targets, segments))]
            return offsets, targets

        out_offsets, out_targets = _direction(adj_out)
        in_offsets, in_targets = _direction(adj_in)
        return cls(vertex_ids, out_offsets, out_targets, in_offsets, in_targets)

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def num_edges(self) -> int:
        return len(self.out_targets)

    def has_vertex(self, v: int) -> bool:
        return v in self._index

    def index_of(self, v: int) -> int:
        """The compacted ``0..n-1`` index of original id ``v``."""
        return self._index[v]

    def indices_of(self, ids: Iterable[int]) -> np.ndarray:
        """Vectorized :meth:`index_of` over a collection of original ids.

        Uses one ``searchsorted`` when the id table is sorted (always true
        for :meth:`freeze` output); every id must exist in the snapshot.
        An int64 array is taken as it is.
        """
        arr = ids if isinstance(ids, np.ndarray) else np.fromiter(ids, dtype=np.int64)
        if self._ids_are_rows:
            return arr
        if self._ids_sorted:
            return np.searchsorted(self.vertex_ids, arr)
        index = self._index
        return np.fromiter(
            (index[int(v)] for v in arr), dtype=np.int64, count=len(arr)
        )

    def rows_of(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, known)`` for an int64 id array that may hold strangers.

        ``known[i]`` says whether the snapshot has ``ids[i]``; where it
        does, ``rows[i]`` is its compacted index (elsewhere some row in
        range, so gathers stay legal).
        """
        n = len(self.vertex_ids)
        if self._ids_are_rows:
            known = (ids >= 0) & (ids < n)
        elif self._ids_sorted:
            rows = np.minimum(np.searchsorted(self.vertex_ids, ids), n - 1)
            return rows, self.vertex_ids[rows] == ids
        else:
            found = map(self._index.get, ids.tolist(), repeat(-1))
            ids = np.fromiter(found, dtype=np.int64, count=len(ids))
            known = ids >= 0
        return np.where(known, ids, 0), known

    def out_degree(self, v: int) -> int:
        i = self._index[v]
        return int(self.out_offsets[i + 1] - self.out_offsets[i])

    def in_degree(self, v: int) -> int:
        i = self._index[v]
        return int(self.in_offsets[i + 1] - self.in_offsets[i])

    def out_neighbors(self, v: int) -> List[int]:
        i = self._index[v]
        span = self.out_targets[self.out_offsets[i] : self.out_offsets[i + 1]]
        ids = self.vertex_ids
        return [int(ids[j]) for j in span]

    def in_neighbors(self, v: int) -> List[int]:
        i = self._index[v]
        span = self.in_targets[self.in_offsets[i] : self.in_offsets[i + 1]]
        ids = self.vertex_ids
        return [int(ids[j]) for j in span]

    def edges(self) -> Iterator[Tuple[int, int]]:
        ids = self.vertex_ids
        for i in range(self.num_vertices):
            u = int(ids[i])
            for k in range(int(self.out_offsets[i]), int(self.out_offsets[i + 1])):
                yield (u, int(ids[self.out_targets[k]]))

    # ------------------------------------------------------------------
    # Raw-buffer round trip (shared-memory publish / attach)
    # ------------------------------------------------------------------
    def to_buffers(self) -> Tuple[Dict[str, object], List[np.ndarray]]:
        """``(manifest, arrays)`` describing a flat byte layout.

        The manifest records, per array field, its dtype string, shape,
        byte offset, and byte length inside one contiguous buffer of
        ``manifest["total_bytes"]`` bytes (offsets are 16-byte aligned).
        It is plain JSON-able data, so it can travel over a pipe to a
        worker process while the bytes travel through
        ``multiprocessing.shared_memory``. ``arrays`` are the C-contiguous
        sources in manifest order, ready for :meth:`pack_into`.
        """
        fields: List[Dict[str, object]] = []
        arrays: List[np.ndarray] = []
        offset = 0
        for name in ARRAY_FIELDS:
            arr = np.ascontiguousarray(getattr(self, name))
            offset = -(-offset // _ALIGN) * _ALIGN
            fields.append(
                {
                    "name": name,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": arr.nbytes,
                }
            )
            arrays.append(arr)
            offset += arr.nbytes
        # SharedMemory refuses zero-size segments; an empty snapshot still
        # needs one byte of backing store.
        manifest = {"fields": fields, "total_bytes": max(offset, 1)}
        return manifest, arrays

    def pack_into(self, buffer) -> Dict[str, object]:
        """Copy all arrays into ``buffer`` (writable, bytes-like) at the
        offsets of a fresh manifest; returns that manifest."""
        manifest, arrays = self.to_buffers()
        view = memoryview(buffer)
        if len(view) < int(manifest["total_bytes"]):
            raise ValueError(
                f"buffer holds {len(view)} bytes, need {manifest['total_bytes']}"
            )
        for field, arr in zip(manifest["fields"], arrays):
            if arr.nbytes == 0:
                continue
            dest = np.frombuffer(
                view, dtype=arr.dtype, count=arr.size, offset=int(field["offset"])
            )
            # frombuffer views of read-only buffers can't be assigned to;
            # pack_into requires a writable buffer by contract.
            dest[...] = arr.ravel()
        return manifest

    @classmethod
    def from_buffers(cls, manifest: Dict[str, object], buffer) -> "CSRSnapshot":
        """Rebuild a snapshot from a manifest + raw buffer, zero-copy.

        The arrays become read-only views into ``buffer`` — nothing is
        re-canonicalized, re-sorted, or copied, so attaching a published
        segment in a worker costs O(n) only for the id-lookup dict the
        read API needs. The caller must keep ``buffer`` (and whatever owns
        it, e.g. the ``SharedMemory`` handle) alive as long as the
        snapshot is in use.
        """
        view = memoryview(buffer)
        parts: Dict[str, np.ndarray] = {}
        for field in manifest["fields"]:  # type: ignore[index]
            dtype = np.dtype(field["dtype"])
            shape = tuple(field["shape"])
            size = 1
            for dim in shape:
                size *= dim
            arr = np.frombuffer(
                view, dtype=dtype, count=size, offset=int(field["offset"])
            ).reshape(shape)
            if arr.flags.writeable:
                arr.flags.writeable = False
            parts[str(field["name"])] = arr
        return cls(*(parts[name] for name in ARRAY_FIELDS))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRSnapshot):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in (
                "vertex_ids",
                "out_offsets",
                "out_targets",
                "in_offsets",
                "in_targets",
            )
        )

    def __repr__(self) -> str:
        return f"CSRSnapshot(n={self.num_vertices}, m={self.num_edges})"
