"""repro.net: the wire layer over :mod:`repro.service`.

Three pieces, all asyncio and all pure-stdlib:

* :mod:`repro.net.protocol` — length-prefixed JSON framing and the
  message vocabulary (``query`` / ``batch`` / ``update`` / ``stats`` /
  ``subscribe`` / ``ping``).
* :mod:`repro.net.server` — :class:`ReachabilityServer`, which serves a
  :class:`~repro.service.engine.ReachabilityService` with socket-layer
  batch coalescing (concurrent wire queries gather into
  ``query_batch`` waves), shed-with-retry-hint
  backpressure, and journal-shipping ``subscribe`` feeds.
* :mod:`repro.net.client` / :mod:`repro.net.replica` —
  :class:`ReachabilityClient` (pipelined async client),
  :class:`FailoverClient` (supervisor-routed retries: jittered backoff,
  endpoint-map reconnects, idempotent re-send), and
  :class:`ReplicaNode` (continuous replay at a version watermark,
  exact-resume reconnects, snapshot fallback, promote-on-failure via
  ``recover()``).
* :mod:`repro.net.supervisor` — :class:`ClusterSupervisor`, the control
  plane: heartbeat health checks, epoch-stamped write leases
  (split-brain guard), watermark-ordered auto-promotion, and the
  published endpoint map.
"""

from repro.net.client import (
    ConnectionLost,
    FailoverClient,
    ReachabilityClient,
    ServerError,
)
from repro.net.protocol import ProtocolError
from repro.net.replica import ReplicaNode
from repro.net.server import JournalFanout, ReachabilityServer
from repro.net.supervisor import ClusterSupervisor

__all__ = [
    "ClusterSupervisor",
    "ConnectionLost",
    "FailoverClient",
    "JournalFanout",
    "ProtocolError",
    "ReachabilityClient",
    "ReachabilityServer",
    "ReplicaNode",
    "ServerError",
]
