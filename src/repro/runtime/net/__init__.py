"""Network transport for the sharded runtime.

The single-machine form of the multi-node runtime: the same superstep-
barrier protocol the sharding subsystem already runs, carried over framed
loopback sockets instead of ``multiprocessing`` queues, plus a socket front
door for streamed ingestion.

* :mod:`~repro.runtime.net.frames` — the wire format: length-prefixed,
  pure-stdlib msgpack-style frames with a typed :class:`FrameError`
  hierarchy (no input may hang the decoder or deliver a partial message);
* :mod:`~repro.runtime.net.server` — the data plane: one
  :class:`~repro.runtime.sharding.protocol.ShardProtocol` per server
  process, specialized over the wire by the ``hello`` handshake;
* :mod:`~repro.runtime.net.backend` — the control plane:
  :class:`NetworkBackend`, the socket pipe of
  :class:`~repro.runtime.sharding.remote.RemoteBackend`, behind
  ``backend="network"``, with wire-byte accounting;
* :mod:`~repro.runtime.net.gateway` — streamed ingestion:
  :class:`IngestGateway` multiplexes concurrent producer sockets into an
  :class:`~repro.runtime.streaming.IngestQueue` with per-tenant admission
  control and refuse-or-block backpressure; :class:`GatewayClient` is the
  producer-side helper.

The names are imported from these submodules on first access (PEP 562):
a shard server imports :mod:`~repro.runtime.net.server` alone, without the
backend's or the gateway's code.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".backend": ("NetworkBackend",),
    ".frames": (
        "DEFAULT_MAX_FRAME", "ConnectionClosed", "FrameCorrupt",
        "FrameDecoder", "FrameError", "FrameTooLarge", "FrameTruncated",
        "decode_frame", "encode_frame",
    ),
    ".gateway": ("GatewayClient", "IngestGateway"),
    ".server": ("handle_shard_connection", "shard_server_main"),
})

__all__ = [
    "NetworkBackend",
    "IngestGateway",
    "GatewayClient",
    "FrameError",
    "FrameTruncated",
    "FrameCorrupt",
    "FrameTooLarge",
    "ConnectionClosed",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "DEFAULT_MAX_FRAME",
    "handle_shard_connection",
    "shard_server_main",
]
