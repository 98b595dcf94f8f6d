"""Asyncio shard server: one shard's worker behind a framed socket.

The data plane of the network backend.  Each shard server owns a
:class:`~repro.runtime.sharding.shard.ShardWorker` and serves the *same*
command protocol the multiprocessing backend speaks over queues
(:func:`repro.runtime.sharding.mp._shard_worker_main`), transported as
length-prefixed frames (:mod:`repro.runtime.net.frames`) over a loopback TCP
connection.

Wire protocol (control plane → shard server, strict request/reply order)::

    ("auth", token_bytes)            -> no reply  spawn-time shared secret;
                                                 required first when the
                                                 server was launched with a
                                                 token — a missing or wrong
                                                 token closes the connection
                                                 without a reply
    ("hello", {shard, num_shards, seed, compiled, reactions})
        -> ("welcome", {"shard": shard})         membership handshake; the
                                                 server builds its worker and
                                                 routing table from this frame
    ("load"|"ingest", column_batch)  -> ("ok", copies)
    ("step", (max_supersteps, budget))
        -> ("report", (shard, fired, supersteps, size, stable, labels))
                                                 ``stable`` is this shard's
                                                 quiescence vote and
                                                 ``labels`` its label
                                                 histogram ({label: count}
                                                 when stable, else None),
                                                 riding the step reply
                                                 exactly as in the queue
                                                 protocol
    ("labels", None)                 -> ("labels", {label: count})
                                                 elasticity's mid-run read
    ("extract_labels", [label...])   -> ("batch", column_batch)
    ("extract_some", limit)          -> ("batch", column_batch)
    ("snapshot", None)               -> ("batch", column_batch)
    ("reset", column_batch)          -> ("reset_ok", shard)    checkpoint
                                                 restore; the distinctive kind
                                                 lets the client drain stale
                                                 replies of an aborted round
    ("sleep", seconds)               -> no reply (fault-injection delay hook)
    ("stop", None)                   -> ("stopped", shard), then close

Any exception is reported as ``("error", traceback_text)`` before the
connection closes, so the control plane fails loudly instead of hanging.  A
dropped connection (client abort, network fault) simply ends the handler —
the control plane observes the EOF on its side as a dead worker.

**Trust boundary.**  The ``hello`` frame ships the reaction tuple as a
tagged pickle, and ``pickle.loads`` is arbitrary code execution — so a
spawned server *requires* the ``auth`` preamble before it will decode
anything pickle-bearing: the backend generates a random token per run and
hands it to the server through the spawn pipe (never the network), and the
server compares in constant time.  Until the token matches, frames are
decoded with ``allow_pickle=False`` (a crafted pickle frame is just a
:class:`~repro.runtime.net.frames.FramePickleRejected` and a closed
connection), so any local process that race-connects to the loopback port
gets nothing.  A failed authentication does not count as the server's one
control connection — the real control plane can still connect.

:func:`shard_server_main` is the subprocess entry point: it binds an
ephemeral loopback port, reports the port number back through a
``multiprocessing`` pipe, serves until its (single) control connection ends,
and exits.  :func:`handle_shard_connection` is deliberately spawnable with
``asyncio.start_server`` inside a test process too (no token, so no auth
preamble), so the protocol logic is exercised under coverage without
crossing a process boundary.
"""

from __future__ import annotations

import asyncio
import hmac
import traceback
from typing import Any, Optional, Tuple

from ...multiset.columnar import from_column_batch, to_column_batch
from ..sharding.routing import RoutingTable
from ..sharding.shard import ShardWorker
from .frames import ConnectionClosed, FrameError, read_frame, write_frame

__all__ = ["handle_shard_connection", "shard_server_main"]


def _build_worker(config: dict) -> Tuple[ShardWorker, RoutingTable]:
    """Construct the shard worker + routing table a ``hello`` frame describes."""
    reactions = tuple(config["reactions"])
    worker = ShardWorker(
        config["shard"],
        reactions,
        seed=config["seed"],
        compiled=config["compiled"],
    )
    routing = RoutingTable(reactions, config["num_shards"])
    return worker, routing


async def handle_shard_connection(
    reader: "asyncio.StreamReader",
    writer: "asyncio.StreamWriter",
    auth_token: Optional[bytes] = None,
) -> bool:
    """Serve one control-plane connection until ``stop`` or disconnect.

    With an ``auth_token`` set, the first frame must be ``("auth", token)``
    — decoded pickle-free, compared in constant time, and answered with
    silence: a wrong or missing token just closes the connection (returns
    ``False``, so a single-shot server does not count it as its control
    connection).  Then the ``hello`` handshake, whose reaction tuple is the
    one pickle-bearing frame of the protocol; every later frame is a
    ``(command, payload)`` request answered in strict order.  Errors are
    reported as ``("error", traceback)`` replies; a dropped connection ends
    the handler silently (the peer already knows).  Returns ``True`` once
    the connection got past authentication.
    """
    worker = None
    try:
        if auth_token is not None:
            try:
                auth, _ = await read_frame(reader)  # allow_pickle=False
            except FrameError:
                return False  # hostile or vanished peer; say nothing
            if (
                not isinstance(auth, tuple)
                or len(auth) != 2
                or auth[0] != "auth"
                or not isinstance(auth[1], bytes)
                or not hmac.compare_digest(auth[1], auth_token)
            ):
                return False
        try:
            hello, _ = await read_frame(reader, allow_pickle=True)
        except FrameError:
            return True  # peer vanished before the handshake
        command, config = hello
        if command != "hello":
            await write_frame(
                writer, ("error", f"expected 'hello' handshake, got {command!r}")
            )
            return True
        worker, routing = _build_worker(config)
        shard = worker.shard
        await write_frame(writer, ("welcome", {"shard": shard}))
        while True:
            try:
                frame, _ = await read_frame(reader, allow_pickle=True)
            except (ConnectionClosed, FrameError, ConnectionError):
                return True  # control plane dropped us; nothing left to reply to
            command, payload = frame
            if command == "stop":
                worker.close()
                worker = None
                await write_frame(writer, ("stopped", shard))
                return True
            if command == "load" or command == "ingest":
                copies = worker.ingest(from_column_batch(payload))
                await write_frame(writer, ("ok", copies))
            elif command == "step":
                max_supersteps, budget = payload
                report = worker.run_local(
                    max_supersteps=max_supersteps, budget=budget
                )
                await write_frame(
                    writer,
                    (
                        "report",
                        (
                            report.shard,
                            report.fired,
                            report.supersteps,
                            report.size,
                            report.stable,
                            report.labels,
                        ),
                    ),
                )
            elif command == "labels":
                await write_frame(writer, ("labels", worker.label_counts()))
            elif command == "extract_labels":
                pairs = worker.extract_labels(payload)
                await write_frame(writer, ("batch", to_column_batch(pairs)))
            elif command == "extract_some":
                pairs = worker.extract_some(payload, routing)
                await write_frame(writer, ("batch", to_column_batch(pairs)))
            elif command == "snapshot":
                await write_frame(writer, ("batch", to_column_batch(worker.counts())))
            elif command == "reset":
                # Checkpoint restore: rebuild the worker from scratch and
                # ingest the checkpoint batch, mirroring the queue protocol.
                worker.close()
                worker, _ = _build_worker(config)
                worker.ingest(from_column_batch(payload))
                await write_frame(writer, ("reset_ok", shard))
            elif command == "sleep":
                # Fault-injection hook: delay the *next* reply without dying.
                await asyncio.sleep(payload)
            else:
                raise ValueError(f"unknown shard command {command!r}")
    except BaseException:
        try:
            await write_frame(writer, ("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - peer gone while reporting
            pass
        return True
    finally:
        if worker is not None:
            worker.close()
        try:
            writer.close()
        except Exception:  # pragma: no cover - transport already torn down
            pass


async def serve_one_connection(
    port_callback, auth_token: Optional[bytes] = None
) -> None:
    """Serve shard connections on an ephemeral loopback port until one ends.

    ``port_callback`` receives the bound port once the socket is listening.
    The server exits when its first completed *authenticated* connection
    ends — the control plane holds exactly one connection per shard server
    and respawns a fresh process instead of reconnecting, so a single-shot
    lifetime keeps process management unambiguous, and a stranger failing
    the ``auth_token`` preamble cannot end the server's lifetime out from
    under the real control plane.
    """
    done = asyncio.Event()

    async def handler(reader: Any, writer: Any) -> None:
        served = False
        try:
            served = await handle_shard_connection(reader, writer, auth_token)
        finally:
            if served:
                done.set()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    try:
        port_callback(server.sockets[0].getsockname()[1])
        await done.wait()
    finally:
        server.close()
        await server.wait_closed()


def shard_server_main(conn: Any, auth_token: Optional[bytes] = None) -> None:
    """Shard-server subprocess entry: bind, report the port, serve, exit.

    ``conn`` is the write end of a ``multiprocessing.Pipe``; the bound
    ephemeral port is sent through it (then the pipe is closed) so the parent
    can connect without any port-assignment race.  ``auth_token`` arrives
    through the spawn arguments — the same trusted channel — and gates the
    socket (see the module docstring's trust boundary).
    """

    def report(port: int) -> None:
        conn.send(port)
        conn.close()

    asyncio.run(serve_one_connection(report, auth_token))
