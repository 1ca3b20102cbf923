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

``result`` and ``batch-result`` frames, the two that carry outcomes,
are written straight from a walk's outcome columns by one writer
(:func:`encode_results`, :func:`encode_batch_result`): the bytes of
:func:`encode` over :func:`outcome_to_wire`, with no per-row object.

Vertex ids (``s``, ``t``, ``u``, ``v`` and the members of ``pairs``)
are JSON integers. ``deadline_ms`` is a finite, non-negative JSON number
that is not a bool: the request's deadline in milliseconds, where 0 or
an absent key means none. A lease's ``ttl_ms`` is one too (absent is
0), and a lease's ``epoch`` and a subscription's ``after`` are JSON
integers >= 0 (absent is 0). Any other value fails that request alone
with an ``error`` reply; the frames around it keep theirs.

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

from repro.service.outcomes import OutcomeColumns, QueryOutcome

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


#: ``"answer"`` and ``"confident"`` as JSON, by ``answer * 2 + confident``.
_VERDICTS = tuple(
    f',"answer":{_dumps(a)},"confident":{_dumps(c)}'
    for a in (False, True) for c in (False, True)
)


def _outcomes_json(outcomes) -> List[str]:
    """The one writer of wire outcomes: each, in request order, as the
    JSON text of ``outcome_to_wire(outcome)`` less its opening brace.
    Each distinct row code is formatted once; a row adds its endpoints."""
    columns = OutcomeColumns.of(outcomes)
    codes, ends = columns.code.tolist(), {}
    for code in set(codes):
        via, version, detail, retry_after_ms = columns.tails[code >> 2]
        end = f'{_VERDICTS[code & 3]},"via":{_dumps(via)},"version":{_json(version)}'
        if detail:
            end += f',"detail":{_dumps(detail)}'
        if retry_after_ms is not None:
            end += f',"retry_after_ms":{_json(retry_after_ms)}'
        ends[code] = end + "}"
    # Endpoints are ints (the server admits no others), which format as JSON.
    texts = [
        f'"s":{s},"t":{t}{ends[code]}' for (s, t), code in zip(columns.pairs, codes)
    ]
    fan = columns.fan
    return texts if fan is None else [texts[row] for row in fan]


def encode_results(mids: Sequence, outcomes) -> List[bytes]:
    """A ``result`` frame per outcome (columns, or :class:`QueryOutcome`
    rows), ``mids[i]`` answering ``outcomes[i]``: the bytes of
    ``encode({"type": RESULT, "id": mid, **outcome_to_wire(outcome)})``."""
    head = f'{{"type":"{RESULT}","id":'
    return [
        _frame(f"{head}{_json(mid)},{text}")
        for mid, text in zip(mids, _outcomes_json(outcomes))
    ]


def encode_result(mid, outcome: QueryOutcome) -> bytes:
    """The ``result`` frame for one outcome (see :func:`encode_results`)."""
    return encode_results((mid,), (outcome,))[0]


def encode_batch_result(mid, outcomes) -> bytes:
    """The ``batch-result`` frame for a batch's outcomes (columns or a
    sequence of :class:`QueryOutcome`): the bytes of ``encode({"type":
    BATCH_RESULT, "id": mid, "outcomes": [...]})``."""
    texts = _outcomes_json(outcomes)
    items = "{" + ",{".join(texts) if texts else ""
    return _frame(
        f'{{"type":"{BATCH_RESULT}","id":{_json(mid)},"outcomes":[{items}]}}'
    )


def outcome_to_wire(outcome: QueryOutcome) -> dict:
    """A :class:`QueryOutcome` as wire fields (merged into a response)."""
    wire = {
        "s": outcome.source, "t": outcome.target, "answer": outcome.answer,
        "confident": outcome.confident, "via": outcome.via, "version": outcome.version,
    }
    if outcome.detail:
        wire["detail"] = outcome.detail
    if outcome.retry_after_ms is not None:
        wire["retry_after_ms"] = outcome.retry_after_ms
    return wire


def outcome_from_wire(wire: dict) -> QueryOutcome:
    """The inverse of :func:`outcome_to_wire` (client-side decoding)."""
    retry = wire.get("retry_after_ms")
    return QueryOutcome(
        source=int(wire["s"]),
        target=int(wire["t"]),
        answer=bool(wire["answer"]),
        confident=bool(wire["confident"]),
        via=str(wire["via"]),
        version=int(wire["version"]),
        detail=str(wire.get("detail", "")),
        retry_after_ms=None if retry is None else int(retry),
    )
