"""Length-prefixed frame codec: the sharded runtime's wire format.

Every message the network transport exchanges — protocol commands, shard
replies, gateway admissions — travels as one *frame*: a 4-byte big-endian
unsigned length prefix followed by exactly that many body bytes.  The body is
a self-describing msgpack-style encoding built on :mod:`struct` alone (no
third-party codec), covering the value universe the shard protocol actually
ships: ``None``, bools, arbitrary-precision ints, floats, strings, bytes,
lists, tuples, and string/int-keyed dicts — which includes the column-batch
element wire format (:func:`~repro.multiset.columnar.to_column_batch`)
unchanged.  Values outside that universe (the handshake's reaction tuple is
the only one that crosses the wire today) fall back to a tagged stdlib
pickle — but because ``pickle.loads`` is arbitrary code execution, the
*decoder* rejects that tag by default: every ``decode`` entry point takes
``allow_pickle`` (default ``False``, raising :class:`FramePickleRejected`),
and only the backend↔shard-server channel — which authenticates the peer
with a spawn-time token first (:mod:`repro.runtime.net.server`) — opts in.
Network-facing endpoints (the ingestion gateway, the pre-auth server
socket) never decode a pickle from the wire.

Safety properties, pinned by ``tests/properties/test_frame_properties.py``:

* **round-trip** — ``decode_frame(encode_frame(x)) == x`` for every
  encodable value, including every column batch;
* **no partial delivery** — a truncated buffer raises
  :class:`FrameTruncated`, a body that lies about its own lengths raises
  :class:`FrameCorrupt`, and an oversized length prefix raises
  :class:`FrameTooLarge` *before* any body bytes are buffered; no input
  hangs the decoder or yields half a message;
* **typed failures** — every decode error is a :class:`FrameError`
  (a ``ValueError``), so transport code has one exception family to map to
  :class:`~repro.runtime.recovery.WorkerDied`.  Hostile bodies that would
  otherwise escape the family — an unhashable dict key, nesting past
  :data:`MAX_DEPTH` — are converted to :class:`FrameCorrupt`.

:class:`FrameDecoder` is the incremental (feed-bytes, get-objects) variant
used by synchronous socket clients (the network backend, the gateway
client); :func:`read_frame` / :func:`write_frame` are the asyncio-stream
variant used by the shard servers and the gateway.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, List, Optional, Tuple

__all__ = [
    "FrameError",
    "FrameTruncated",
    "FrameCorrupt",
    "FramePickleRejected",
    "FrameTooLarge",
    "ConnectionClosed",
    "DEFAULT_MAX_FRAME",
    "MAX_DEPTH",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "read_frame",
    "write_frame",
]

#: Default cap on one frame's body size (bytes).  A 10^5-element snapshot
#: batch encodes to a few megabytes; 64 MiB leaves an order of magnitude of
#: headroom while still rejecting a garbage length prefix immediately.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: Cap on value nesting, enforced symmetrically by encoder and decoder so
#: everything encodable is decodable.  Real protocol payloads are at most a
#: handful of levels deep; the cap exists so a hostile body of nested list
#: tags raises :class:`FrameCorrupt` instead of ``RecursionError``.
MAX_DEPTH = 128

_PREFIX = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


class FrameError(ValueError):
    """Base class of every frame encode/decode failure."""


class FrameTruncated(FrameError):
    """The buffer ends before the frame it starts is complete."""


class FrameCorrupt(FrameError):
    """The frame's body contradicts itself (bad tag, bad length, bad UTF-8)."""


class FramePickleRejected(FrameCorrupt):
    """A pickle-tagged value arrived on an endpoint that forbids pickles."""


class FrameTooLarge(FrameError):
    """A length prefix (or an encoded value) exceeds the frame-size cap."""


class ConnectionClosed(FrameError):
    """The peer closed the stream cleanly at a frame boundary (EOF)."""


# -- encoding ----------------------------------------------------------------------

def _encode_value(value: Any, out: List[bytes], depth: int = 0) -> None:
    """Append ``value``'s tagged encoding to ``out`` (recursive)."""
    if depth > MAX_DEPTH:
        raise FrameError(f"value nesting exceeds the depth cap ({MAX_DEPTH})")
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out.append(b"I")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif type(value) is float:
        out.append(b"d")
        out.append(_F64.pack(value))
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif type(value) is bytes:
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif type(value) is list:
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out, depth + 1)
    elif type(value) is tuple:
        out.append(b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out, depth + 1)
    elif type(value) is dict:
        out.append(b"m")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out, depth + 1)
            _encode_value(item, out, depth + 1)
    else:
        # Total-coverage fallback: anything else (bools/ints subclasses,
        # Fractions, frozensets...) rides a tagged stdlib pickle.  The shard
        # protocol itself only uses it for the handshake's reaction tuple.
        raw = pickle.dumps(value)
        out.append(b"p")
        out.append(_U32.pack(len(raw)))
        out.append(raw)


def encode_frame(value: Any, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Encode ``value`` as one complete frame (length prefix included).

    Raises :class:`FrameTooLarge` when the encoded body would exceed
    ``max_frame`` bytes — the sender-side half of the size contract, so an
    oversized batch fails loudly at the producer instead of poisoning the
    receiver's stream.
    """
    parts: List[bytes] = []
    _encode_value(value, parts)
    body = b"".join(parts)
    if len(body) > max_frame:
        raise FrameTooLarge(
            f"encoded frame body is {len(body)} bytes (cap {max_frame})"
        )
    return _PREFIX.pack(len(body)) + body


# -- decoding ----------------------------------------------------------------------

class _Body:
    """Bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int, end: int) -> None:
        self.data = data
        self.pos = start
        self.end = end

    def take(self, count: int) -> bytes:
        """Consume exactly ``count`` bytes or raise :class:`FrameCorrupt`."""
        if count < 0 or self.pos + count > self.end:
            raise FrameCorrupt(
                f"frame body claims {count} bytes at offset {self.pos} "
                f"but only {self.end - self.pos} remain"
            )
        raw = self.data[self.pos : self.pos + count]
        self.pos += count
        return raw


def _decode_value(body: _Body, allow_pickle: bool, depth: int = 0) -> Any:
    """Decode one tagged value from ``body`` (recursive)."""
    if depth > MAX_DEPTH:
        raise FrameCorrupt(
            f"frame body nests values deeper than the cap ({MAX_DEPTH})"
        )
    tag = body.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(body.take(8))[0]
    if tag == b"I":
        (length,) = _U32.unpack(body.take(4))
        return int.from_bytes(body.take(length), "big", signed=True)
    if tag == b"d":
        return _F64.unpack(body.take(8))[0]
    if tag == b"s":
        (length,) = _U32.unpack(body.take(4))
        try:
            return body.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameCorrupt(f"invalid UTF-8 in string value: {exc}") from None
    if tag == b"b":
        (length,) = _U32.unpack(body.take(4))
        return body.take(length)
    if tag == b"l" or tag == b"t":
        (count,) = _U32.unpack(body.take(4))
        items = [_decode_value(body, allow_pickle, depth + 1) for _ in range(count)]
        return items if tag == b"l" else tuple(items)
    if tag == b"m":
        (count,) = _U32.unpack(body.take(4))
        try:
            return {
                _decode_value(body, allow_pickle, depth + 1): _decode_value(
                    body, allow_pickle, depth + 1
                )
                for _ in range(count)
            }
        except TypeError as exc:
            # A well-formed body can still name an unhashable key (a list).
            raise FrameCorrupt(f"unhashable dict key in frame body: {exc}") from None
    if tag == b"p":
        (length,) = _U32.unpack(body.take(4))
        raw = body.take(length)
        if not allow_pickle:
            raise FramePickleRejected(
                "pickle-tagged value rejected (this endpoint decodes with "
                "allow_pickle=False; only the authenticated backend/server "
                "channel accepts pickles)"
            )
        try:
            return pickle.loads(raw)
        except FrameCorrupt:
            raise
        except Exception as exc:
            raise FrameCorrupt(f"invalid pickled value: {exc}") from None
    raise FrameCorrupt(f"unknown frame type tag {tag!r}")


def decode_frame(
    data: bytes,
    max_frame: int = DEFAULT_MAX_FRAME,
    allow_pickle: bool = False,
) -> Tuple[Any, int]:
    """Decode the first complete frame in ``data``; returns ``(value, consumed)``.

    ``consumed`` is the total bytes of the frame (prefix + body), so callers
    holding a buffer with several frames can slice and repeat.  Raises
    :class:`FrameTruncated` when ``data`` ends mid-frame,
    :class:`FrameTooLarge` when the prefix exceeds ``max_frame`` (checked
    before any body byte is needed), and :class:`FrameCorrupt` when the body
    is malformed or does not use exactly its declared length.  Pickle-tagged
    values raise :class:`FramePickleRejected` unless ``allow_pickle`` is
    set — reserve it for peers authenticated out of band.
    """
    if len(data) < _PREFIX.size:
        raise FrameTruncated(
            f"need {_PREFIX.size} prefix bytes, have {len(data)}"
        )
    (length,) = _PREFIX.unpack_from(data)
    if length > max_frame:
        raise FrameTooLarge(f"frame claims {length} bytes (cap {max_frame})")
    total = _PREFIX.size + length
    if len(data) < total:
        raise FrameTruncated(
            f"frame claims {length} body bytes, only {len(data) - _PREFIX.size} present"
        )
    body = _Body(data, _PREFIX.size, total)
    try:
        value = _decode_value(body, allow_pickle)
    except RecursionError:  # pragma: no cover - depth cap fires first
        raise FrameCorrupt("frame body nests values beyond the recursion limit") from None
    if body.pos != total:
        raise FrameCorrupt(
            f"frame body has {total - body.pos} trailing bytes after its value"
        )
    return value, total


class FrameDecoder:
    """Incremental frame decoder for synchronous byte streams.

    Feed arbitrary chunks; complete frames come out, partial ones stay
    buffered.  An oversized prefix raises :class:`FrameTooLarge` as soon as
    the prefix itself is readable — the decoder never buffers toward a frame
    it would reject.  Used by :class:`~repro.runtime.net.backend.NetworkBackend`
    and :class:`~repro.runtime.net.gateway.GatewayClient`.
    """

    def __init__(
        self, max_frame: int = DEFAULT_MAX_FRAME, allow_pickle: bool = False
    ) -> None:
        """Create an empty decoder with the given frame-size cap.

        ``allow_pickle`` mirrors :func:`decode_frame` — leave it off unless
        the peer is authenticated.
        """
        self.max_frame = max_frame
        self.allow_pickle = allow_pickle
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Any]:
        """Absorb ``chunk``; return every frame it completed (maybe none)."""
        self._buffer.extend(chunk)
        frames: List[Any] = []
        while True:
            if len(self._buffer) < _PREFIX.size:
                return frames
            (length,) = _PREFIX.unpack_from(self._buffer)
            if length > self.max_frame:
                raise FrameTooLarge(
                    f"frame claims {length} bytes (cap {self.max_frame})"
                )
            total = _PREFIX.size + length
            if len(self._buffer) < total:
                return frames
            value, consumed = decode_frame(
                bytes(self._buffer), self.max_frame, self.allow_pickle
            )
            del self._buffer[:consumed]
            frames.append(value)


# -- asyncio-stream helpers --------------------------------------------------------

async def read_frame(
    reader: "asyncio.StreamReader",
    max_frame: int = DEFAULT_MAX_FRAME,
    allow_pickle: bool = False,
) -> Tuple[Any, int]:
    """Read one frame from ``reader``; returns ``(value, wire_bytes)``.

    ``wire_bytes`` counts prefix plus body (communication-volume accounting).
    Raises :class:`ConnectionClosed` on a clean EOF at a frame boundary,
    :class:`FrameTruncated` on EOF mid-frame, :class:`FrameTooLarge` before
    reading an oversized body, and :class:`FrameCorrupt` on a bad body.
    ``allow_pickle`` mirrors :func:`decode_frame`.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("stream closed at a frame boundary") from None
        raise FrameTruncated(
            f"stream closed after {len(exc.partial)} of {_PREFIX.size} prefix bytes"
        ) from None
    (length,) = _PREFIX.unpack(prefix)
    if length > max_frame:
        raise FrameTooLarge(f"frame claims {length} bytes (cap {max_frame})")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated(
            f"stream closed after {len(exc.partial)} of {length} body bytes"
        ) from None
    value, consumed = decode_frame(prefix + body, max_frame, allow_pickle)
    return value, consumed


async def write_frame(
    writer: "asyncio.StreamWriter",
    value: Any,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> int:
    """Encode ``value`` and write it to ``writer``; returns the wire bytes."""
    data = encode_frame(value, max_frame)
    writer.write(data)
    await writer.drain()
    return len(data)


def recv_frame(sock, decoder: FrameDecoder, timeout: Optional[float] = None) -> Any:
    """Blocking-socket read of one frame through ``decoder``.

    The synchronous-client counterpart of :func:`read_frame` (used by
    :class:`~repro.runtime.net.gateway.GatewayClient` and tests): receives
    chunks until the decoder completes a frame.  Raises
    :class:`ConnectionClosed` on EOF at a frame boundary (or on a peer that
    aborted the connection — a reset while waiting for a reply means the
    same thing to a request/reply client: no reply is coming) and
    :class:`FrameTruncated` on EOF mid-frame; ``timeout`` (seconds) is
    applied per ``recv`` via the socket's own timeout (``None`` blocks
    indefinitely).
    """
    sock.settimeout(timeout)
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            raise ConnectionClosed("peer aborted the connection") from None
        if not chunk:
            if decoder.pending_bytes:
                raise FrameTruncated(
                    f"peer closed with {decoder.pending_bytes} buffered bytes"
                )
            raise ConnectionClosed("peer closed at a frame boundary")
        frames = decoder.feed(chunk)
        if frames:
            if len(frames) > 1:  # pragma: no cover - strict request/reply usage
                raise FrameCorrupt("peer sent more than one reply frame")
            return frames[0]
