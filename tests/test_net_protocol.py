"""Wire framing: length-prefixed JSON frames and outcome codecs."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import protocol
from repro.service.engine import QueryOutcome


def _reader_with(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def _read(data: bytes):
    async def go():
        return await protocol.read_frame(_reader_with(data))

    return asyncio.run(go())


def test_encode_read_roundtrip():
    message = {"type": "query", "id": 7, "s": 1, "t": 2}
    assert _read(protocol.encode(message)) == message


def test_multiple_frames_in_one_stream():
    frames = [{"type": "ping", "id": i} for i in range(3)]
    data = b"".join(protocol.encode(f) for f in frames)

    async def go():
        reader = _reader_with(data)
        out = []
        while True:
            frame = await protocol.read_frame(reader)
            if frame is None:
                break
            out.append(frame)
        return out

    assert asyncio.run(go()) == frames


def test_clean_eof_between_frames_is_none():
    assert _read(b"") is None


def test_eof_inside_header_raises():
    with pytest.raises(protocol.ProtocolError):
        _read(protocol.encode({"type": "ping"})[:2])


def test_eof_inside_body_raises():
    frame = protocol.encode({"type": "ping", "id": 1})
    with pytest.raises(protocol.ProtocolError):
        _read(frame[:-3])


def test_oversized_frame_rejected_without_reading_body():
    header = (protocol.MAX_FRAME + 1).to_bytes(4, "big")
    with pytest.raises(protocol.ProtocolError):
        _read(header)


def test_undecodable_body_raises():
    body = b"{not json}"
    with pytest.raises(protocol.ProtocolError):
        _read(len(body).to_bytes(4, "big") + body)


def test_non_object_body_raises():
    body = b"[1,2,3]"
    with pytest.raises(protocol.ProtocolError):
        _read(len(body).to_bytes(4, "big") + body)


def test_binary_safe_payloads():
    message = {"type": "query", "note": "newlines\nand é漢"}
    assert _read(protocol.encode(message)) == message


def test_outcome_wire_roundtrip():
    outcome = QueryOutcome(3, 9, True, True, "engine", 42, "detail-text")
    wire = protocol.outcome_to_wire(outcome)
    assert wire["s"] == 3 and wire["version"] == 42
    assert "retry_after_ms" not in wire
    back = protocol.outcome_from_wire(wire)
    assert back == outcome


def test_outcome_wire_roundtrip_shed_with_retry_hint():
    outcome = QueryOutcome(
        1, 2, False, False, "shed", 7, "retry-after-ms=12", retry_after_ms=12
    )
    wire = protocol.outcome_to_wire(outcome)
    assert wire["retry_after_ms"] == 12
    back = protocol.outcome_from_wire(wire)
    assert back.retry_after_ms == 12
    assert back == outcome


# ----------------------------------------------------------------------
# The outcome encoder: result / batch-result frames without a dict each
# ----------------------------------------------------------------------
_details = st.text(max_size=16) | st.sampled_from(
    ["", "identity", 'say "hi"', "back\\slash", "naïve é ✓", "lanes=1024 layers=18"]
)
_outcomes = st.builds(
    QueryOutcome,
    source=st.integers(-(2**70), 2**70),
    target=st.integers(-(2**70), 2**70),
    answer=st.booleans(),
    confident=st.booleans(),
    via=st.sampled_from(["fastpath", "labels", "cache", "bitbatch", "shed", "error"]),
    version=st.integers(0, 2**40),
    detail=_details,
    retry_after_ms=st.none() | st.integers(0, 10**6),
)
_ids = st.none() | st.integers(-(2**40), 2**40) | st.text(max_size=8)


@settings(max_examples=100, deadline=None)
@given(mid=_ids, outcomes=st.lists(_outcomes, max_size=5))
def test_outcome_encoder_is_byte_identical_to_the_generic_one(mid, outcomes):
    assert protocol.encode_batch_result(mid, outcomes) == protocol.encode({
        "type": protocol.BATCH_RESULT,
        "id": mid,
        "outcomes": [protocol.outcome_to_wire(o) for o in outcomes],
    })
    for outcome in outcomes:
        frame = protocol.encode_result(mid, outcome)
        assert frame == protocol.encode({
            "type": protocol.RESULT,
            "id": mid,
            **protocol.outcome_to_wire(outcome),
        })
        assert protocol.outcome_from_wire(_read(frame)) == outcome


def test_outcome_encoder_memo_is_bounded():
    """A version bump per frame (a writer beside the readers) mints a new
    tail per frame; the memo is emptied, not grown."""
    for version in range(10_000):
        outcome = QueryOutcome(1, 2, True, True, "fastpath", version, "same-scc")
        protocol.encode_result(version, outcome)
        assert len(protocol._tails) <= protocol._TAILS_MAX
    shed = QueryOutcome(1, 2, False, False, "shed", 3, "retry-after-ms=5", 5)
    assert protocol.outcome_from_wire(_read(protocol.encode_result(0, shed))) == shed


# ----------------------------------------------------------------------
# split_frames: the synchronous splitter behind the server's frame pump
# ----------------------------------------------------------------------
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
_messages = st.dictionaries(st.text(max_size=8), _json_values, max_size=6)


def _read_all(data: bytes):
    async def go():
        reader = _reader_with(data)
        out = []
        while (frame := await protocol.read_frame(reader)) is not None:
            out.append(frame)
        return out

    return asyncio.run(go())


@settings(max_examples=60, deadline=None)
@given(message=_messages)
def test_encode_is_byte_identical_to_json_dumps(message):
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    assert protocol.encode(message) == len(body).to_bytes(4, "big") + body


@settings(max_examples=60, deadline=None)
@given(
    messages=st.lists(_messages, max_size=6),
    cuts=st.lists(st.integers(0, 400), max_size=12),
)
def test_split_frames_over_any_chunking_matches_read_frame(messages, cuts):
    stream = b"".join(protocol.encode(m) for m in messages)
    # Cut points anywhere, including inside a 4-byte header.
    edges = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    got, rest = [], b""
    splitter, fed = protocol.FrameSplitter(), []
    for lo, hi in zip(edges, edges[1:]):
        frames, rest = protocol.split_frames(rest + stream[lo:hi])
        got.extend(frames)
        fed.extend(splitter.feed(stream[lo:hi]))
        assert splitter.pending == bool(rest)
    assert rest == b""
    assert got == fed == _read_all(stream) == messages


def test_split_frames_returns_the_incomplete_tail():
    one = protocol.encode({"type": "ping", "id": 1})
    two = protocol.encode({"type": "ping", "id": 2})
    messages, rest = protocol.split_frames(one + two[:-3])
    assert messages == [{"type": "ping", "id": 1}]
    assert rest == two[:-3]
    # Inside a header nothing is known yet.
    assert protocol.split_frames(two[:2]) == ([], two[:2])


def test_frame_splitter_joins_a_frame_once_its_length_is_in_hand(monkeypatch):
    joined = []
    real_split = protocol.split_frames

    def recording_split(buffer):
        joined.append(len(buffer))
        return real_split(buffer)

    monkeypatch.setattr(protocol, "split_frames", recording_split)
    small = protocol.encode({"type": "ping", "id": 1})
    big = protocol.encode({"type": "ping", "id": 2, "pad": "x" * 1000})
    stream = small + big + small
    splitter = protocol.FrameSplitter()
    # The first read ends inside big's header, the rest arrive in tens.
    cut = len(small) + 2
    got = splitter.feed(stream[:cut])
    for at in range(cut, len(stream), 10):
        got += splitter.feed(stream[at : at + 10])
    assert [m["id"] for m in got] == [1, 2, 1]
    assert not splitter.pending
    # One look at the first read, one at the completed header, one at the
    # completed frame — not one per read — then the trailing small frame.
    assert len(joined) <= 5
    assert sum(joined) <= 3 * len(stream)


@pytest.mark.parametrize(
    "bad",
    [
        # Oversized: rejected from the header alone, no body in sight.
        (protocol.MAX_FRAME + 1).to_bytes(4, "big"),
        (10).to_bytes(4, "big") + b"{not json}",
        (7).to_bytes(4, "big") + b"[1,2,3]",
        (2).to_bytes(4, "big") + b"\xff\xfe",
    ],
)
def test_split_frames_applies_read_frames_checks(bad):
    good = protocol.encode({"type": "ping", "id": 1})
    for data, ahead in ((bad, []), (good + bad, [{"type": "ping", "id": 1}])):
        with pytest.raises(protocol.ProtocolError) as caught:
            protocol.split_frames(data)
        # The frames ahead of the bad one are not lost with it.
        assert list(caught.value.messages) == ahead
        with pytest.raises(protocol.ProtocolError) as caught:
            protocol.FrameSplitter().feed(data)
        assert list(caught.value.messages) == ahead
        with pytest.raises(protocol.ProtocolError):
            _read_all(data)
