"""The wire protocol: length-prefixed JSON frames.

Every message is one frame: a 4-byte big-endian unsigned length followed
by that many bytes of UTF-8 JSON encoding one object. Length prefixing
(not line framing) keeps the protocol binary-safe and makes partial reads
unambiguous: a reader always knows whether it is waiting for more bytes
or looking at a finished message — the property journal records already
rely on for torn-tail recovery, applied at the transport layer.

Request messages carry a client-chosen ``id`` that the response echoes,
so one connection can have many requests in flight — which is exactly
what the server's socket-layer coalescer exploits: concurrent ``query``
frames on one (or many) connections gather into one ``query_batch``
wave.

Message types (requests -> responses):

====================  =====================================================
``query``             ``{"type": "query", "id", "s", "t", "deadline_ms"?}``
                      -> ``result`` (a wire-encoded ``QueryOutcome``)
``batch``             ``{"type": "batch", "id", "pairs": [[s, t], ...],
                      "deadline_ms"?}`` -> ``batch-result``
``update``            ``{"type": "update", "id", "op": "+"|"-", "u", "v"}``
                      -> ``update-result`` | ``error`` (read-only replica)
``stats``             ``{"type": "stats", "id"}`` -> ``stats-result`` with
                      the full service snapshot, server counters, role,
                      and watermark
``subscribe``         ``{"type": "subscribe", "id", "after": version}`` ->
                      ``subscribed`` (with a full ``snapshot`` when the
                      journal cannot serve ``after``), then a stream of
                      ``journal`` frames (shipped journal records)
``ping``              ``{"type": "ping", "id"}`` -> ``pong``
``lease``             ``{"type": "lease", "id", "epoch", "ttl_ms"}`` ->
                      ``lease-result`` — the supervisor's write-lease
                      grant/renewal; a primary that stops receiving
                      renewals demotes itself to read-only when the last
                      grant's TTL expires (split-brain guard)
``endpoints``         ``{"type": "endpoints", "id"}`` ->
                      ``endpoints-result`` — served by the *supervisor's*
                      control endpoint, not by data servers: the current
                      ``{"epoch", "primary": [host, port] | null,
                      "replicas": [[host, port], ...]}`` map failover
                      clients reconnect through
====================  =====================================================

``result`` and ``batch-result`` frames — the two that carry outcomes,
one per point query and a thousand per batch — have an encoder of their
own (:func:`encode_result`, :func:`encode_batch_result`) that formats
``s`` / ``t`` / ``id`` into a memoised JSON tail instead of building a
dict per outcome; its bytes are those of :func:`encode` over
:func:`outcome_to_wire`.

Vertex ids (``s``, ``t``, ``u``, ``v`` and the members of ``pairs``)
are JSON integers. ``deadline_ms`` is a finite, non-negative JSON number
that is not a bool: the request's deadline in milliseconds, where 0 or
an absent key means none. Any other value fails that request alone with
an ``error`` reply; the frames around it keep theirs.

Errors at the request level come back as
``{"type": "error", "id", "error": reason}``; errors at the framing level
(oversized, truncated, or undecodable frames) are connection-fatal and
raise :class:`ProtocolError`.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import List, Optional, Sequence, Tuple

from repro.service.engine import QueryOutcome

#: Frame header: 4-byte big-endian length.
_HEADER = struct.Struct(">I")

#: Hard ceiling on one frame; a graph snapshot of a few million edges
#: fits, anything larger is a framing bug, not a bigger message.
MAX_FRAME = 64 * 1024 * 1024

# Request types.
QUERY = "query"
BATCH = "batch"
UPDATE = "update"
STATS = "stats"
SUBSCRIBE = "subscribe"
PING = "ping"
LEASE = "lease"
ENDPOINTS = "endpoints"

# Response / stream types.
RESULT = "result"
BATCH_RESULT = "batch-result"
UPDATE_RESULT = "update-result"
STATS_RESULT = "stats-result"
SUBSCRIBED = "subscribed"
JOURNAL = "journal"
PONG = "pong"
LEASE_RESULT = "lease-result"
ENDPOINTS_RESULT = "endpoints-result"
ERROR = "error"


class ProtocolError(RuntimeError):
    """The byte stream is not a valid frame sequence (connection-fatal)."""

    #: Frames :func:`split_frames` decoded ahead of the bad one.
    messages: Sequence[dict] = ()


#: One encoder for every frame: ``json.dumps`` with non-default
#: separators builds a fresh ``JSONEncoder`` per call.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def encode(message: dict) -> bytes:
    """One message as a length-prefixed frame."""
    return _frame(_dumps(message))


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """The next message, or ``None`` on clean EOF (between frames).

    EOF *inside* a frame — header or body — is a truncated stream and
    raises :class:`ProtocolError`, as do oversized and undecodable
    frames: framing errors poison the stream position, so callers must
    drop the connection rather than resynchronize.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("truncated frame header") from exc
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("truncated frame body") from exc
    return _decode(body)


def _decode(body: bytes) -> dict:
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise ProtocolError("undecodable frame body") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body is not an object")
    return message


def split_frames(buffer: bytes) -> Tuple[List[dict], bytes]:
    """Every complete frame at the head of ``buffer``, and the rest.

    The synchronous counterpart of :func:`read_frame` for callers that
    are handed bytes (an ``asyncio.Protocol``) instead of awaiting them:
    the same checks, raising :class:`ProtocolError` — an oversized
    length is rejected from the header alone, before its body arrives.
    The error's ``messages`` are the frames decoded before the bad one
    (``read_frame`` would have served them). ``rest`` is the incomplete
    frame at the tail, possibly part of a header.
    """
    messages: List[dict] = []
    at, size = 0, len(buffer)
    try:
        while size - at >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer, at)
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds MAX_FRAME"
                )
            stop = at + _HEADER.size + length
            if stop > size:
                break
            messages.append(_decode(buffer[at + _HEADER.size : stop]))
            at = stop
    except ProtocolError as exc:
        exc.messages = messages
        raise
    return messages, buffer[at:]


class FrameSplitter:
    """:func:`split_frames` over a stream of reads of any size.

    A frame still arriving is kept as a list of chunks and joined once
    its declared length is in hand, so no byte of it is copied or
    scanned again per read: buffering a ``MAX_FRAME`` frame that arrives
    64 KiB at a time is linear, not quadratic.
    """

    def __init__(self) -> None:
        self._chunks: List[bytes] = []  # the frame still arriving
        self._have = 0  # bytes in them
        self._need = 0  # below this many bytes no frame can complete

    @property
    def pending(self) -> bool:
        """Part of a frame is held: EOF now would truncate the stream."""
        return bool(self._chunks)

    def feed(self, data: bytes) -> List[dict]:
        """The frames ``data`` completes; raises like ``split_frames``."""
        if self._chunks:
            self._chunks.append(data)
            self._have += len(data)
            if self._have < self._need:
                return []
            data = b"".join(self._chunks)
        messages, rest = split_frames(data)
        self._chunks = [rest] if rest else []
        self._have = len(rest)
        self._need = _HEADER.size
        if self._have >= _HEADER.size:
            self._need += _HEADER.unpack_from(rest)[0]
        return messages


async def send(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and drain (so backpressure reaches the sender)."""
    writer.write(encode(message))
    await writer.drain()


def _json(value) -> str:
    """``_dumps(value)``; a plain ``int`` formats itself, which is quicker."""
    return str(value) if type(value) is int else _dumps(value)


def _frame(body: str) -> bytes:
    data = body.encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(data)) + data


#: JSON text of everything in a wire outcome after ``"s"`` and ``"t"``,
#: closing brace included, by ``(answer, confident, via, version, detail,
#: retry_after_ms)``. A wave's outcomes share a handful of these, so a
#: reply is mostly integer formatting. Emptied when it reaches
#: ``_TAILS_MAX`` (versions move on; old tails never come back).
_tails: dict = {}
_TAILS_MAX = 1024


def _outcome_json(outcome: QueryOutcome) -> str:
    """``outcome_to_wire(outcome)`` as JSON text."""
    key = (
        outcome.answer, outcome.confident, outcome.via, outcome.version,
        outcome.detail, outcome.retry_after_ms,
    )
    tail = _tails.get(key)
    if tail is None:
        wire = outcome_to_wire(outcome)
        del wire["s"], wire["t"]
        if len(_tails) >= _TAILS_MAX:
            _tails.clear()
        tail = _tails[key] = "," + _dumps(wire)[1:]
    s, t = outcome.source, outcome.target
    if type(s) is not int or type(t) is not int:
        s, t = _dumps(s), _dumps(t)
    return f'{{"s":{s},"t":{t}{tail}'


def encode_result(mid, outcome: QueryOutcome) -> bytes:
    """The ``result`` frame for one outcome: the bytes of
    ``encode({"type": RESULT, "id": mid, **outcome_to_wire(outcome)})``."""
    fields = _outcome_json(outcome)[1:]
    return _frame(f'{{"type":"{RESULT}","id":{_json(mid)},{fields}')


def encode_batch_result(mid, outcomes: Sequence[QueryOutcome]) -> bytes:
    """The ``batch-result`` frame for a batch's outcomes: the bytes of
    ``encode({"type": BATCH_RESULT, "id": mid, "outcomes": [...]})``."""
    items = ",".join(map(_outcome_json, outcomes))
    return _frame(
        f'{{"type":"{BATCH_RESULT}","id":{_json(mid)},"outcomes":[{items}]}}'
    )


def outcome_to_wire(outcome: QueryOutcome) -> dict:
    """A :class:`QueryOutcome` as wire fields (merged into a response)."""
    wire = {
        "s": outcome.source,
        "t": outcome.target,
        "answer": outcome.answer,
        "confident": outcome.confident,
        "via": outcome.via,
        "version": outcome.version,
    }
    if outcome.detail:
        wire["detail"] = outcome.detail
    if outcome.retry_after_ms is not None:
        wire["retry_after_ms"] = outcome.retry_after_ms
    return wire


def outcome_from_wire(wire: dict) -> QueryOutcome:
    """The inverse of :func:`outcome_to_wire` (client-side decoding)."""
    return QueryOutcome(
        source=int(wire["s"]),
        target=int(wire["t"]),
        answer=bool(wire["answer"]),
        confident=bool(wire["confident"]),
        via=str(wire["via"]),
        version=int(wire["version"]),
        detail=str(wire.get("detail", "")),
        retry_after_ms=(
            int(wire["retry_after_ms"])
            if wire.get("retry_after_ms") is not None
            else None
        ),
    )
