"""Framing layer: length prefixes, partial reads, and corrupt streams."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.framing import (HEADER, MAX_FRAME_BYTES, FrameDecoder,
                               FramingError, encode_frame)
from repro.net.wire import Hello, StatsReply
from repro.runtime.registry import WIRE


class TestEncodeFrame:
    def test_prefixes_the_payload_length(self):
        frame = encode_frame(b"abc")
        assert frame == HEADER.pack(3) + b"abc"

    def test_rejects_oversized_payloads(self):
        with pytest.raises(FramingError):
            encode_frame(b"x" * (MAX_FRAME_BYTES + 1))


class TestFrameDecoder:
    def test_single_frame_roundtrip(self):
        decoder = FrameDecoder()
        assert list(decoder.feed(encode_frame(b"payload"))) == [b"payload"]
        assert list(decoder.feed(encode_frame(b"next"))) == [b"next"]

    def test_byte_at_a_time_delivery(self):
        """The pathological partial read: one byte per feed."""
        decoder = FrameDecoder()
        out = []
        for chunk in encode_frame(b"hello"):
            out.extend(decoder.feed(bytes([chunk])))
        assert out == [b"hello"]

    def test_many_frames_in_one_chunk(self):
        payloads = [b"a", b"", b"ccc", b"dddd"]
        stream = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        assert list(decoder.feed(stream)) == payloads

    def test_frame_split_across_chunks(self):
        stream = encode_frame(b"0123456789") + encode_frame(b"tail")
        decoder = FrameDecoder()
        out = list(decoder.feed(stream[:7]))
        assert out == []
        out = list(decoder.feed(stream[7:]))
        assert out == [b"0123456789", b"tail"]

    def test_oversized_length_fails_fast(self):
        decoder = FrameDecoder()
        with pytest.raises(FramingError):
            list(decoder.feed(HEADER.pack(MAX_FRAME_BYTES + 1)))

    def test_registered_messages_roundtrip_through_frames(self):
        """The wire format is exactly: frame(registry-encoded message)."""
        messages = [Hello(sender=3, role=1),
                    StatsReply(sender=0, payload='{"commands_executed": 7}')]
        stream = b"".join(encode_frame(WIRE.encode(m)) for m in messages)
        decoder = FrameDecoder()
        decoded = [WIRE.decode_one(p) for p in decoder.feed(stream)]
        assert decoded == messages


def spec_parse(stream: bytes):
    """What a decoder fed ``stream`` so far has emitted.

    The frame format read straight off the bytes: a 4-byte big-endian length,
    then that many payload bytes.
    """
    payloads = []
    while len(stream) >= 4:
        end = 4 + int.from_bytes(stream[:4], "big")
        if len(stream) < end:
            break
        payloads.append(stream[4:end])
        stream = stream[end:]
    return payloads


class TestFrameDecoderAgainstTheSpec:
    @settings(max_examples=300, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=40), max_size=8),
           cuts=st.lists(st.integers(0, 400), max_size=12))
    def test_every_feed_matches_the_spec_of_the_stream_so_far(self, payloads, cuts):
        stream = b"".join(encode_frame(payload) for payload in payloads)
        bounds = sorted({0, len(stream), *(cut for cut in cuts if cut < len(stream))})
        decoder = FrameDecoder()
        out = []
        for start, stop in zip(bounds, bounds[1:]):
            out.extend(decoder.feed(stream[start:stop]))
            assert out == spec_parse(stream[:stop])
        assert out == payloads

    def test_a_consumer_that_stops_early_gets_the_rest_on_the_next_feed(self):
        stream = b"".join(encode_frame(p) for p in (b"one", b"two", b"three")) + b"\x00"
        decoder = FrameDecoder()
        for payload in decoder.feed(stream):
            assert payload == b"one"
            break
        assert list(decoder.feed(b"\x00\x00\x01!")) == [b"two", b"three", b"!"]


def test_a_frame_fed_in_small_chunks_is_joined_once():
    """Linear work, counted: a 4 MiB frame arriving as 1,024 chunks of 4 KiB
    is assembled by one ``bytes.join``, in the feed that completes it, not by
    one join (or one copy of the whole buffer) per chunk."""
    size, step = 4 * 1024 * 1024, 4096
    stream = encode_frame(bytes(size))
    chunks = [stream[start:start + step] for start in range(0, len(stream), step)]
    joins = []

    def count_joins(frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", None) == "join"
                and isinstance(getattr(arg, "__self__", None), bytes)):
            joins.append(len(joins))

    decoder = FrameDecoder()
    out = []
    sys.setprofile(count_joins)
    try:
        for chunk in chunks:
            out.extend(decoder.feed(chunk))
    finally:
        sys.setprofile(None)
    assert len(chunks) == 1025 and len(out) == 1 and len(out[0]) == size
    assert len(joins) == 1
