"""Shared-memory segment protocol for frozen CSR shards.

A shard's :class:`~repro.graph.snapshot.CSRSnapshot` is published once
into a named ``multiprocessing.shared_memory`` block; workers attach by
name and rebuild numpy views with
:meth:`~repro.graph.snapshot.CSRSnapshot.from_buffers` — zero copies, so
K workers share one physical copy of each shard regardless of K.

Segment names are version-stamped (``ifca{pid}s{shard}v{version}`` plus
the publishing router's token): republishing after a graph epoch creates
*new* segments, workers swap to them on a ``("swap", ...)`` message, and
the primary unlinks the old names afterwards. A worker still holding old
views keeps a valid mapping until it drops them (POSIX unlink
semantics), so the swap never races the reader.

The attach path has to fight ``resource_tracker``: spawned workers share
the primary's tracker daemon, whose per-type cache is a plain set — an
attaching worker re-registering the name is a no-op, but *unregistering*
(the widely circulated pre-3.13 workaround) would remove the primary's
own entry and make the primary's later unlink scream. Python 3.13 grew
``track=False`` for exactly this; on older versions registration is
suppressed for the duration of the attach instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

from repro.graph.snapshot import CSRSnapshot


def segment_name(shard: int, version: int, *, token: str = "") -> str:
    """Canonical version-stamped segment name for one shard.

    ``token`` is the publishing router's process-unique suffix: two
    routers in one process may publish the same (shard, version).
    """
    return f"ifca{os.getpid()}s{shard}v{version}{token}"


@dataclass
class SegmentHandle:
    """The primary's grip on one published segment."""

    name: str
    manifest: Dict[str, object]
    shm: shared_memory.SharedMemory
    _closed: bool = field(default=False, init=False)

    def close(self, *, unlink: bool = True) -> None:
        """Drop the mapping and (by default) unlink the name.

        Idempotent: teardown paths that overlap (a failed swap falling
        back to a full redeploy, a router closed mid-respawn) may close
        the same handle twice, and the second call must not unlink a
        name a newer epoch could have reused.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - views still exported
            # A live numpy view pins the mapping; the handle is dropped
            # and the OS reclaims it when the last view dies.
            pass
        if unlink:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def publish_snapshot(csr: CSRSnapshot, name: str) -> SegmentHandle:
    """Copy a snapshot's arrays into a fresh named segment."""
    manifest, _arrays = csr.to_buffers()
    shm = shared_memory.SharedMemory(
        create=True, name=name, size=int(manifest["total_bytes"])
    )
    csr.pack_into(shm.buf)
    return SegmentHandle(name=name, manifest=manifest, shm=shm)


def attach_snapshot(
    name: str, manifest: Dict[str, object]
) -> Tuple[shared_memory.SharedMemory, CSRSnapshot]:
    """Attach a published segment and rebuild the snapshot zero-copy.

    The returned ``SharedMemory`` handle owns the mapping — keep it alive
    as long as the snapshot is used, and close it only after dropping the
    snapshot (its arrays are views into the mapping).
    """
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register  # type: ignore[assignment]
    return shm, CSRSnapshot.from_buffers(manifest, shm.buf)
