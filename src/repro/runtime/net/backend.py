"""Network shard backend: the coordinator as a TCP control plane.

Runs the same superstep-barrier protocol as
:class:`~repro.runtime.sharding.mp.MultiprocessingBackend`, but the command
channel is a framed loopback socket per shard instead of a pair of
``multiprocessing`` queues — the single-machine form of the multi-node
runtime the ROADMAP targets.  Shard servers
(:mod:`repro.runtime.net.server`) are spawned as subprocesses; membership is
established by the ``hello``/``welcome`` handshake, which also distributes
the program and each shard's routing parameters, so a server process starts
generic and is specialized entirely over the wire.

Protocol discipline: within one backend call, commands are *broadcast* (all
frames written back-to-back) before any reply is read, and replies are
collected in shard order — the same send-all/collect-in-order pattern the
queue backend uses, which both overlaps the shards' work on real cores and
keeps per-connection request/reply pairing unambiguous without locks.

**Supervision.**  Every reply read is bounded by the reply timeout
(``REPRO_NET_TIMEOUT`` env seconds, default 300) and fails *fast* on
transport loss: a SIGKILL'd server closes its TCP side, so the pending read
raises within the event loop's notice of the EOF rather than after the
timeout.  Unsupervised (the default), any loss tears the backend down and
raises ``RuntimeError``; supervised (set by sessions holding a
:class:`~repro.runtime.recovery.RecoveryManager`), it raises
:class:`~repro.runtime.recovery.WorkerDied` and leaves survivors up so the
session can :meth:`NetworkBackend.recover` — respawn dead servers, broadcast
a checkpoint ``reset``, and drain each connection until the distinctive
``reset_ok`` acknowledgement discards the aborted round's stale replies.

:meth:`NetworkBackend.drop_connection` is the fault-injection hook: it
aborts one shard's client-side transport (the network analogue of a cable
pull), after which the next read on that shard surfaces ``WorkerDied`` and
recovery respawns the server.  :attr:`NetworkBackend.wire_bytes` counts
every frame byte sent or received, feeding
:func:`repro.analysis.sharding.communication_volume`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.forkserver
import os
import secrets
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ...gamma.reaction import Reaction
from ...multiset.columnar import (
    column_batch_copies,
    from_column_batch,
    to_column_batch,
)
from ...multiset.element import Element
from ...multiset.multiset import Multiset
from ..recovery import WorkerDied
from ..sharding.quiescence import QuiescenceDetector
from ..sharding.routing import RoutingTable, Transfer
from ..sharding.shard import LocalReport
from .frames import FrameError, read_frame, write_frame
from .server import shard_server_main

__all__ = ["NetworkBackend"]

#: Default seconds one reply read may take before the worker is declared
#: unresponsive (matches the queue backend's reply timeout); override with
#: the ``REPRO_NET_TIMEOUT`` environment variable — CI pins a small value so
#: a hung socket fails the job fast instead of eating the runner.
_REPLY_TIMEOUT = 300.0

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


def _reply_timeout() -> float:
    """The effective reply timeout (env-overridable for bounded CI runs)."""
    raw = os.environ.get("REPRO_NET_TIMEOUT", "")
    try:
        return float(raw) if raw else _REPLY_TIMEOUT
    except ValueError:  # pragma: no cover - malformed env
        return _REPLY_TIMEOUT


class NetworkBackend:
    """Shard backend with every worker behind a framed loopback socket."""

    name = "network"

    def __init__(
        self,
        reactions: Sequence[Reaction],
        num_shards: int,
        routing: RoutingTable,
        seed: Optional[int] = None,
        compiled: bool = True,
    ) -> None:
        """Spawn ``num_shards`` shard servers and complete their handshakes.

        Server processes use the ``forkserver`` start method when available
        (``spawn`` otherwise) — never ``fork``: respawn, resize, and
        recovery all launch servers while the backend's event-loop thread
        (and possibly executor threads) are alive, and forking a
        multi-threaded parent is deprecated and deadlock-prone.  The
        forkserver helper forks from a clean, thread-free process instead.
        The first backend starts it with :mod:`repro.runtime.net.server`
        preloaded (see :func:`_start_forkserver` for why that needs
        ``PYTHONPATH`` on 3.11, which leaves the handed-over ``sys_path``
        unapplied), so every shard server is a warm fork that does not
        import the package again.  Construction fails fast — an unreachable
        or misbehaving server aborts the whole backend.
        """
        self.routing = routing
        self.num_shards = num_shards
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
        self._hello = {
            "num_shards": num_shards,
            "seed": seed,
            "compiled": compiled,
            "reactions": tuple(reactions),
        }
        self._timeout = _reply_timeout()
        self._processes: List[Any] = [None] * num_shards
        self._ports: List[Optional[int]] = [None] * num_shards
        self._readers: List[Any] = [None] * num_shards
        self._writers: List[Any] = [None] * num_shards
        #: Total frame bytes sent plus received over every shard connection.
        self.wire_bytes = 0
        self._stopped = False
        #: When True, worker loss raises :class:`WorkerDied` (leaving the
        #: backend up for :meth:`recover`) instead of tearing everything down.
        self.supervised = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        try:
            for shard in range(num_shards):
                self._launch(shard)
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._loop.run_forever,
                name="repro-net-backend",
                daemon=True,
            )
            self._thread.start()
            self._run(self._connect_many(range(num_shards)))
        except BaseException:
            self.stop()
            raise

    # -- process + connection plumbing ---------------------------------------------
    def _launch(self, shard: int) -> None:
        """Spawn shard ``shard``'s server process and learn its port."""
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
        self._ports[shard] = parent_conn.recv()
        parent_conn.close()
        self._processes[shard] = process

    async def _connect(self, shard: int) -> None:
        """Open shard ``shard``'s connection and run the membership handshake.

        The ``auth`` preamble presents the spawn-time token before the
        pickle-bearing ``hello``; a server that was not ours (or a hijacked
        port) stays silent and the handshake read fails loudly.
        """
        reader, writer = await asyncio.open_connection("127.0.0.1", self._ports[shard])
        self._readers[shard] = reader
        self._writers[shard] = writer
        await self._post(shard, "auth", self._auth)
        hello = dict(self._hello)
        hello["shard"] = shard
        await self._post(shard, "hello", hello)
        welcome = await self._reply(shard, "welcome")
        if welcome["shard"] != shard:  # pragma: no cover - handshake bug
            raise RuntimeError(
                f"shard {shard} server answered as shard {welcome['shard']}"
            )

    async def _connect_many(self, shards: Iterable[int]) -> None:
        shards = list(shards)
        results = await asyncio.gather(
            *(self._connect(shard) for shard in shards), return_exceptions=True
        )
        for shard, result in zip(shards, results):
            if isinstance(result, WorkerDied):
                raise result
            if isinstance(result, BaseException):
                raise WorkerDied(shard, f"handshake failed: {result}") from result

    def _run(self, coro):
        """Run a protocol coroutine on the loop thread; translate supervision.

        The synchronous boundary of the backend: coroutines always signal
        loss as :class:`WorkerDied`; here, unsupervised backends convert it
        into the fail-loudly contract (full teardown + ``RuntimeError``).
        """
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result()
        except WorkerDied as died:
            if self.supervised:
                raise
            self.stop()
            raise RuntimeError(f"shard {died.shard} worker {died.reason}") from None

    async def _post(self, shard: int, command: str, payload: Any = None) -> None:
        """Write one command frame to shard ``shard`` (no reply read)."""
        writer = self._writers[shard]
        if writer is None or writer.is_closing():
            raise WorkerDied(shard, f"connection lost before {command!r}")
        try:
            self.wire_bytes += await write_frame(writer, (command, payload))
        except (FrameError, ConnectionError, OSError) as exc:
            self._abort_connection(shard)
            raise WorkerDied(shard, f"send of {command!r} failed: {exc}") from None

    def _send(self, shard: int, command: str, payload: Any = None) -> None:
        """Post one no-reply command from sync code (fault-injection hook).

        Mirrors the multiprocessing backend's ``_send`` so the shared fault
        injector can deliver ``sleep`` commands to either backend.
        """
        self._run(self._post(shard, command, payload))

    async def _next_reply(self, shard: int, expected: str) -> Tuple[str, Any]:
        """Read shard ``shard``'s next reply frame, bounded by the timeout.

        Transport loss (EOF, reset, torn frame) surfaces immediately as
        :class:`WorkerDied` — a killed server closes its socket, so death is
        detected at EOF speed, not timeout speed.  An alive-but-silent
        server hits the timeout; under supervision it is killed and
        reclaimed like a crash.
        """
        reader = self._readers[shard]
        if reader is None:
            raise WorkerDied(shard, f"no connection awaiting {expected!r} reply")
        try:
            # allow_pickle: replies come from the server *we* spawned on a
            # port it alone bound and reported over the spawn pipe, so batch
            # values of any picklable type can ride home.
            frame, size = await asyncio.wait_for(
                read_frame(reader, allow_pickle=True), timeout=self._timeout
            )
        except asyncio.TimeoutError:
            process = self._processes[shard]
            if self.supervised and process is not None and process.is_alive():
                # Unresponsive-but-alive under supervision is a livelock:
                # reclaim it the same way a crash would be handled.
                process.kill()
                process.join(timeout=10)
            raise WorkerDied(
                shard,
                f"unresponsive for {self._timeout:.0f}s awaiting {expected!r} reply",
            ) from None
        except (FrameError, ConnectionError, OSError) as exc:
            # Close our half too: the server process may linger a moment
            # after its socket hit EOF, and dead_shards() must not mistake
            # the shard for a survivor that can still be reset in place.
            self._abort_connection(shard)
            raise WorkerDied(
                shard, f"connection lost awaiting {expected!r} reply ({exc})"
            ) from None
        self.wire_bytes += size
        return frame

    async def _reply(self, shard: int, expected: str) -> Any:
        kind, payload = await self._next_reply(shard, expected)
        if kind == "error":
            raise WorkerDied(shard, f"failed:\n{payload}")
        if kind != expected:  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"shard {shard}: expected {expected!r} reply, got {kind!r}"
            )
        return payload

    # -- protocol ----------------------------------------------------------------
    def load(self, partitions: Sequence[Sequence[Tuple[Element, int]]]) -> None:
        """Ship the initial hash partitions to the servers (one batch each)."""

        async def go() -> None:
            for shard, batch in enumerate(partitions):
                await self._post(shard, "load", to_column_batch(batch))
            for shard in range(self.num_shards):
                await self._reply(shard, "ok")

        self._run(go())

    def superstep_all(
        self,
        max_supersteps: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> List[LocalReport]:
        """Run one local round on every shard concurrently; reports in shard order."""

        async def go() -> List[LocalReport]:
            for shard in range(self.num_shards):
                await self._post(shard, "step", (max_supersteps, budget))
            reports = []
            for shard in range(self.num_shards):
                fields = await self._reply(shard, "report")
                reports.append(LocalReport(*fields))
            return reports

        return self._run(go())

    def label_counts(self) -> List[Dict[str, int]]:
        """Per-shard label histograms (elasticity's mid-run read)."""

        async def go() -> List[Dict[str, int]]:
            for shard in range(self.num_shards):
                await self._post(shard, "labels")
            return [
                await self._reply(shard, "labels")
                for shard in range(self.num_shards)
            ]

        return self._run(go())

    def execute_transfers(
        self, transfers: Sequence[Transfer], detector: QuiescenceDetector
    ) -> Tuple[int, int]:
        """Apply an exchange plan; returns ``(copies_moved, batches_sent)``.

        The coordinator stays the switch fabric: extractions are broadcast,
        each batch is forwarded to its destination, and deliveries are
        acknowledged — identical bookkeeping to the queue backend, so the
        quiescence detector sees the same event order.
        """

        async def go() -> Tuple[int, int]:
            for transfer in transfers:
                await self._post(
                    transfer.source, "extract_labels", list(transfer.labels)
                )
            moved = 0
            batches = 0
            deliveries: List[Tuple[int, int]] = []
            for transfer in transfers:
                batch = await self._reply(transfer.source, "batch")
                copies = column_batch_copies(batch)
                if not copies:
                    continue
                detector.migrations_started(copies)
                await self._post(transfer.destination, "ingest", batch)
                deliveries.append((transfer.destination, copies))
                batches += 1
                moved += copies
            for destination, copies in deliveries:
                await self._reply(destination, "ok")
                detector.migrations_delivered(destination, copies)
            return moved, batches

        return self._run(go())

    def steal(
        self,
        donor: int,
        thief: int,
        limit: int,
        detector: QuiescenceDetector,
    ) -> int:
        """Move up to ``limit`` routable copies from ``donor`` to ``thief``."""

        async def go() -> int:
            await self._post(donor, "extract_some", limit)
            batch = await self._reply(donor, "batch")
            copies = column_batch_copies(batch)
            if not copies:
                return 0
            detector.migrations_started(copies)
            await self._post(thief, "ingest", batch)
            await self._reply(thief, "ok")
            detector.migrations_delivered(thief, copies)
            return copies

        return self._run(go())

    def ingest_batches(
        self, partitions: Sequence[Sequence[Tuple[Element, int]]]
    ) -> List[int]:
        """Routed streaming injection: one framed batch per non-empty shard."""

        async def go() -> List[int]:
            targets = [shard for shard, batch in enumerate(partitions) if batch]
            for shard in targets:
                await self._post(shard, "ingest", to_column_batch(partitions[shard]))
            copies = [0] * self.num_shards
            for shard in targets:
                copies[shard] = await self._reply(shard, "ok")
            return copies

        return self._run(go())

    def snapshot_all(self) -> Multiset:
        """Non-destructive union of every shard's partition (mid-stream read)."""
        snapshot = Multiset()
        for batch in self.snapshot_shard_batches():
            snapshot.add_counts(from_column_batch(batch))
        return snapshot

    def collect_final(self) -> Multiset:
        """Union of every shard's partition (the run's final multiset)."""
        return self.snapshot_all()

    # -- elasticity --------------------------------------------------------------
    def resize(
        self,
        num_shards: int,
        partitions: Sequence[Sequence[Tuple[Element, int]]],
    ) -> None:
        """Autoscale to ``num_shards`` shard servers and load ``partitions``.

        Mirrors the queue backend: dead servers are respawned first (so a
        retried resize is idempotent), growth spawns and connects fresh
        servers, shrinkage stops the excess ones, and every survivor gets a
        checkpoint-style ``reset`` with its repartitioned batch.
        """
        self.respawn(self.dead_shards())
        self._hello["num_shards"] = num_shards
        if num_shards > self.num_shards:
            grown = list(range(self.num_shards, num_shards))
            for shard in grown:
                self._processes.append(None)
                self._ports.append(None)
                self._readers.append(None)
                self._writers.append(None)
                self._launch(shard)
            self._run(self._connect_many(grown))
        elif num_shards < self.num_shards:
            for shard in range(num_shards, self.num_shards):
                self._retire(shard)
            del self._processes[num_shards:]
            del self._ports[num_shards:]
            del self._readers[num_shards:]
            del self._writers[num_shards:]
        self.num_shards = num_shards
        self._reset_all(partitions=partitions)

    def _retire(self, shard: int) -> None:
        """Gracefully stop one shard server (shrink path; best effort)."""

        async def go() -> None:
            try:
                await self._post(shard, "stop")
                await self._reply(shard, "stopped")
            except WorkerDied:
                pass
            self._abort_connection(shard)

        try:
            asyncio.run_coroutine_threadsafe(go(), self._loop).result(timeout=10)
        except Exception:  # pragma: no cover - teardown race
            pass
        process = self._processes[shard]
        if process is not None:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - stuck server
                process.kill()
                process.join(timeout=10)

    def _abort_connection(self, shard: int) -> None:
        """Hard-close shard ``shard``'s transport (loop thread only)."""
        writer = self._writers[shard]
        if writer is not None:
            transport = writer.transport
            if transport is not None:
                transport.abort()

    def _reset_all(self, partitions=None, batches=None) -> None:
        """Broadcast ``reset``; drain each connection until ``reset_ok``.

        Survivors of an aborted round may still owe replies; the server
        serves commands strictly in order, so reading until the distinctive
        ``reset_ok`` kind discards exactly the stale traffic.  If a shard is
        lost midway, every connection still owing a ``reset_ok`` is dropped
        too: the retried recovery respawns those shards rather than
        resetting them twice and draining only one acknowledgement.
        """

        async def go() -> None:
            owing: List[int] = []
            try:
                for shard in range(self.num_shards):
                    payload = (
                        to_column_batch(partitions[shard])
                        if partitions is not None
                        else batches[shard]
                    )
                    await self._post(shard, "reset", payload)
                    owing.append(shard)
                while owing:
                    shard = owing[0]
                    kind, payload = await self._next_reply(shard, "reset_ok")
                    if kind == "reset_ok":
                        owing.pop(0)
                    elif kind == "error":
                        raise WorkerDied(shard, f"failed during reset:\n{payload}")
            except WorkerDied:
                for shard in owing:
                    self._abort_connection(shard)
                raise

        self._run(go())

    # -- recovery ----------------------------------------------------------------
    def snapshot_shard_batches(self) -> List[Any]:
        """Every shard's partition as column batches (checkpoint capture)."""

        async def go() -> List[Any]:
            for shard in range(self.num_shards):
                await self._post(shard, "snapshot")
            return [
                await self._reply(shard, "batch")
                for shard in range(self.num_shards)
            ]

        return self._run(go())

    def dead_shards(self) -> List[int]:
        """Shards whose server process or connection is gone."""
        dead = []
        for shard in range(self.num_shards):
            process = self._processes[shard]
            writer = self._writers[shard]
            if (
                process is None
                or not process.is_alive()
                or writer is None
                or writer.is_closing()
            ):
                dead.append(shard)
        return dead

    def drop_connection(self, shard: int) -> None:
        """Fault-injection hook: abort shard ``shard``'s transport now.

        The network analogue of a pulled cable: the client-side transport is
        hard-closed, so the next read on this shard raises
        :class:`WorkerDied` and (under supervision) recovery respawns the
        server — whose single-shot process exits on its own once it notices
        the EOF.
        """
        done = threading.Event()

        def abort() -> None:
            self._abort_connection(shard)
            done.set()

        self._loop.call_soon_threadsafe(abort)
        done.wait(timeout=10)

    def respawn(self, shards: Iterable[int]) -> None:
        """Replace the given shards' server processes and connections.

        The old process is killed and joined and its transport aborted (any
        buffered traffic is garbage from the aborted round); a fresh server
        is spawned, connected, and handshaken from scratch.
        """
        shards = list(shards)
        for shard in shards:
            process = self._processes[shard]
            if process is not None:
                if process.is_alive():
                    process.kill()
                process.join(timeout=10)
            done = threading.Event()

            def abort(shard=shard) -> None:
                self._abort_connection(shard)
                done.set()

            self._loop.call_soon_threadsafe(abort)
            done.wait(timeout=10)
            self._launch(shard)
        if shards:
            self._run(self._connect_many(shards))

    def recover(self, shard_batches: Sequence[Any]) -> List[int]:
        """Roll every shard back to a checkpoint cut; returns respawned shards."""
        respawned = self.dead_shards()
        self.respawn(respawned)
        self._reset_all(batches=shard_batches)
        return respawned

    def stop(self) -> None:
        """Stop every shard server and the event loop (idempotent).

        Every teardown step is individually guarded: a server that already
        died, a socket broken by that death, or a process that ignores the
        ``stop`` command must not keep the coordinator from reclaiming the
        rest.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._loop is not None and self._thread is not None:

            async def farewell() -> None:
                for shard in range(len(self._writers)):
                    writer = self._writers[shard]
                    if writer is None or writer.is_closing():
                        continue
                    try:
                        await write_frame(writer, ("stop", None))
                    except Exception:
                        pass
                    try:
                        writer.close()
                    except Exception:  # pragma: no cover - teardown race
                        pass

            try:
                asyncio.run_coroutine_threadsafe(farewell(), self._loop).result(
                    timeout=10
                )
            except Exception:  # pragma: no cover - loop already unusable
                pass
        for process in self._processes:
            if process is None:
                continue
            try:
                process.join(timeout=10)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=10)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            if not self._thread.is_alive():
                self._loop.close()
