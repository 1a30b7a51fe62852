"""Length-prefixed framing for the TCP wire.

A frame is a 4-byte big-endian length followed by exactly that many payload
bytes; the payload is one registry-encoded message
(:meth:`repro.runtime.registry.MessageRegistry.encode` output).  The framing
layer is deliberately dumb — no checksums, no versioning — because the codec
underneath is canonical and self-describing (type-id varint first), and TCP
already guarantees integrity and ordering per connection.

:class:`FrameDecoder` is an incremental parser: feed it whatever chunk sizes
the socket produces (half a header, three frames and a tail, one byte at a
time) and it yields complete payloads in order.  This is the partial-read
handling the asyncio transport relies on.
"""

from __future__ import annotations

import struct
from typing import Iterator, List

#: Frame header: payload length as an unsigned 32-bit big-endian integer.
HEADER = struct.Struct(">I")

#: Hard ceiling on a single frame's payload (16 MiB).  A length above this is
#: unambiguously a corrupt or hostile stream — no registered message, even a
#: maximal catch-up reply, comes anywhere close — and failing fast beats
#: buffering gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class FramingError(ValueError):
    """Raised when a stream violates the framing contract."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap one encoded message into a length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FramingError(f"frame payload of {len(payload)} bytes exceeds "
                           f"the {MAX_FRAME_BYTES}-byte limit")
    return HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder turning an arbitrary byte stream into payloads.

    The complete frames of a chunk are parsed in place, by offset, and each
    payload is sliced out once.  Only an incomplete frame at the end of the
    stream is kept, as the list of chunks it spans, and that list is joined
    once, by the feed that completes the frame.
    """

    def __init__(self) -> None:
        #: the chunks of the incomplete frame at the end of the stream,
        #: from its first header byte on.
        self._tail: List[bytes] = []
        self._tail_bytes = 0
        #: the size the tail must reach before it is parsed again: its header,
        #: or, once the header is in, the whole frame.
        self._tail_end = 0

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Add ``data`` to the stream and yield every completed payload.

        A consumer that stops iterating early leaves the frames it did not
        take buffered for the next feed.
        """
        tail = self._tail
        if tail:
            tail.append(data)
            self._tail_bytes += len(data)
            if self._tail_bytes < self._tail_end:
                return
            data = b"".join(tail)
            self._tail = []
            self._tail_bytes = 0
        header = HEADER.size
        unpack = HEADER.unpack_from
        end = len(data)
        offset = 0
        try:
            while end - offset >= header:
                (need,) = unpack(data, offset)
                if need > MAX_FRAME_BYTES:
                    raise FramingError(
                        f"incoming frame of {need} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)")
                stop = offset + header + need
                if stop > end:
                    break
                start, offset = offset + header, stop
                yield data[start:stop]
        finally:
            if offset < end:
                rest = data[offset:] if offset else data
                self._tail = [rest]
                self._tail_bytes = end - offset
                self._tail_end = (header + unpack(rest)[0] if end - offset >= header
                                  else header)
