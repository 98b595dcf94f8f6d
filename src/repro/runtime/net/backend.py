"""Network shard backend: the coordinator as a TCP control plane.

The socket pipe of :class:`~repro.runtime.sharding.remote.RemoteBackend`:
the same shard protocol as
:class:`~repro.runtime.sharding.mp.MultiprocessingBackend`, carried as
length-prefixed frames over one blocking loopback socket per shard instead
of a pair of ``multiprocessing`` queues — the single-machine form of the
multi-node runtime.  Shard servers (:mod:`repro.runtime.net.server`) are
spawned as subprocesses; membership is established by the
``hello``/``welcome`` handshake, which also distributes the program and
each shard's routing parameters, so a server process starts generic and is
specialized entirely over the wire.

A SIGKILL'd server closes its TCP side, so a pending read fails at EOF
speed rather than after the reply timeout.
:meth:`~repro.runtime.sharding.remote.RemoteBackend.drop_connection` closes
one shard's client socket (the network analogue of a cable pull); the
server's single-shot process exits on its own once it notices the EOF.
:attr:`NetworkBackend.wire_bytes` counts every frame byte sent or received,
feeding :func:`repro.analysis.sharding.communication_volume`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.forkserver
import os
import secrets
import socket
from pathlib import Path
from typing import Any, List, Tuple

from ..recovery import WorkerDied
from ..sharding.remote import RemoteBackend
from .frames import ConnectionClosed, FrameDecoder, FrameError, encode_frame
from .server import shard_server_main

__all__ = ["NetworkBackend"]

#: Seconds to wait for a freshly spawned server to report its port.
_SPAWN_TIMEOUT = 30.0

#: The directory holding the ``repro`` package (``src`` in a checkout).
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[3])


def _start_forkserver() -> None:
    """Start the forkserver with the shard-server code imported, once.

    Python 3.11's ``multiprocessing.forkserver.main`` accepts the parent's
    ``sys_path`` but never applies it, so when the parent found ``repro``
    through ``sys.path`` alone (not ``PYTHONPATH`` or an install) the
    preload's ``ImportError`` is swallowed and every shard server imports
    the package again after the fork.  The directory holding ``repro`` is
    therefore put on ``PYTHONPATH`` for the one exec that starts the
    forkserver, and the environment is restored right after.  Returns at
    once when the forkserver already runs.
    """
    multiprocessing.forkserver.set_forkserver_preload(["repro.runtime.net.server"])
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_PACKAGE_ROOT, saved)))
    try:
        multiprocessing.forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


class NetworkBackend(RemoteBackend):
    """Shard backend with every worker behind a framed loopback socket."""

    name = "network"

    # benchmarks/e2e/trace.py wraps these through this class's own
    # ``vars(NetworkBackend)``, so they are bound here as well as inherited.
    superstep_all = RemoteBackend.superstep_all
    execute_transfers = RemoteBackend.execute_transfers
    steal = RemoteBackend.steal
    ingest_batches = RemoteBackend.ingest_batches
    collect_final = RemoteBackend.collect_final

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        """Spawn the shard servers and complete their handshakes.

        Server processes use the ``forkserver`` start method when available
        (``spawn`` otherwise) — never ``fork``: the coordinator's process
        may run other threads (the ingestion gateway's event loop, test
        harnesses), and forking a multi-threaded parent is deprecated and
        deadlock-prone.  The first backend starts the forkserver with
        :mod:`repro.runtime.net.server` preloaded (see
        :func:`_start_forkserver`), so every shard server is a warm fork
        that does not import the package again.  Construction fails fast —
        an unreachable or misbehaving server aborts the whole backend.
        """
        if "forkserver" in multiprocessing.get_all_start_methods():
            self._context = multiprocessing.get_context("forkserver")
            _start_forkserver()
        else:
            self._context = multiprocessing.get_context("spawn")
        #: Per-backend shared secret: servers receive it through the spawn
        #: arguments and refuse (silently) any connection that does not
        #: present it first, so no unauthenticated peer ever reaches the
        #: pickle-bearing part of the protocol.
        self._auth = secrets.token_bytes(32)
        #: Total frame bytes sent plus received over every shard connection.
        self.wire_bytes = 0
        super().__init__(*args, **kwargs)

    # -- pipe hooks ----------------------------------------------------------------
    def _launch(self, shard: int) -> int:
        """Spawn shard ``shard``'s server process; returns its port."""
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=shard_server_main, args=(child_conn, self._auth), daemon=True
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(_SPAWN_TIMEOUT):
            process.kill()
            raise RuntimeError(
                f"shard {shard} server reported no port within {_SPAWN_TIMEOUT}s"
            )
        port = parent_conn.recv()
        parent_conn.close()
        self._processes[shard] = process
        return port

    def _spawn(self, shards: List[int]) -> None:
        """Launch, connect and handshake the given shards' servers.

        The ``auth`` preamble presents the spawn-time token before the
        pickle-bearing ``hello``; a server that was not ours (or a hijacked
        port) stays silent and the handshake read fails loudly.  Every
        handshake is sent before any ``welcome`` is read.
        """
        reactions, num_shards, seed, compiled = self._worker_args
        ports = [self._launch(shard) for shard in shards]
        for shard, port in zip(shards, ports):
            try:
                sock = socket.create_connection(("127.0.0.1", port), self._timeout)
            except OSError as exc:
                raise WorkerDied(shard, f"handshake failed: {exc}") from None
            # Frames are small request/reply pairs: Nagle's algorithm would
            # hold a broadcast frame back for a delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # allow_pickle: replies come from the server *we* spawned on a
            # port it alone bound and reported over the spawn pipe, so batch
            # values of any picklable type can ride home.  The list holds
            # frames decoded ahead of their read (one chunk may carry two).
            self._channels[shard] = (sock, FrameDecoder(allow_pickle=True), [])
            self._send(shard, "auth", self._auth)
            hello = {"num_shards": num_shards, "seed": seed, "compiled": compiled,
                     "reactions": reactions, "shard": shard}
            self._send(shard, "hello", hello)
        for shard in shards:
            kind, welcome = self._next_reply(shard, "welcome")
            if kind != "welcome" or welcome["shard"] != shard:
                raise WorkerDied(shard, f"handshake failed: {kind} {welcome!r}")

    def _send(self, shard: int, command: str, payload: Any = None) -> None:
        channel = self._channels[shard]
        if channel is None:
            raise WorkerDied(shard, f"connection lost before {command!r}")
        try:
            data = encode_frame((command, payload))
            channel[0].sendall(data)
        except (FrameError, OSError) as exc:
            self._close(shard)
            raise WorkerDied(shard, f"send of {command!r} failed: {exc}") from None
        self.wire_bytes += len(data)

    def _next_reply(self, shard: int, expected: str) -> Tuple[str, Any]:
        """Read shard ``shard``'s next reply frame, bounded by the timeout.

        Transport loss (EOF, reset, torn frame) surfaces immediately as
        :class:`WorkerDied`, and the socket is closed so :meth:`dead_shards`
        cannot mistake a lingering server for a survivor.  An
        alive-but-silent server hits the timeout; under supervision it is
        killed and reclaimed like a crash.
        """
        channel = self._channels[shard]
        if channel is None:
            raise WorkerDied(shard, f"no connection awaiting {expected!r} reply")
        sock, decoder, pending = channel
        try:
            while not pending:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionClosed("peer closed the connection")
                self.wire_bytes += len(chunk)
                pending.extend(decoder.feed(chunk))
        except socket.timeout:
            process = self._processes[shard]
            if self.supervised and process.is_alive():
                process.kill()
                process.join(timeout=10)
            raise WorkerDied(
                shard,
                f"unresponsive for {self._timeout:.0f}s awaiting {expected!r} reply",
            ) from None
        except (FrameError, OSError) as exc:
            self._close(shard)
            raise WorkerDied(
                shard, f"connection lost awaiting {expected!r} reply ({exc})"
            ) from None
        return pending.pop(0)

    def _alive(self, shard: int) -> bool:
        # A channel is only opened once its process is launched.
        return self._channels[shard] is not None and self._processes[shard].is_alive()

    def _close(self, shard: int) -> None:
        channel = self._channels[shard]
        if channel is not None:
            self._channels[shard] = None
            channel[0].close()

    _discard = _close
