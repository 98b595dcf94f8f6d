"""Multiprocessing shard backend: shard workers as OS processes.

Each shard runs a :class:`~repro.runtime.sharding.shard.ShardWorker` inside
its own process, driven by a small command protocol over ``multiprocessing``
queues.  Design constraints:

* **nothing codegenned crosses a process boundary** — every worker process
  compiles its own schedulers from the program's reactions;
* **element batches travel as parallel columns** (``(values, labels, tags,
  counts)`` lists, see :func:`~repro.multiset.columnar.to_column_batch`),
  keeping the wire format picklable on every supported interpreter
  regardless of how ``Element``'s frozen/slots dataclass pickles, with one
  shared list header per column instead of one tuple per element (the
  per-element quad format survives as :meth:`ShardWorker.to_quads` for
  direct worker use);
* **the fork start method is preferred** when the platform offers it, so the
  reaction objects reach workers by address-space inheritance; under spawn
  they are pickled as ordinary dataclasses.

The protocol is synchronous per command but *parallel per round*: the
coordinator broadcasts ``step`` to every worker before collecting any reply,
so local supersteps of different shards genuinely overlap — this is the
backend that turns the coordinator's superstep barrier into real multi-core
execution.

**Supervision.**  Every reply read polls the worker's liveness: a dead
process is detected within :data:`_LIVENESS_INTERVAL` seconds instead of
blocking until the reply timeout.  Unsupervised (the default), death or an
``("error", ...)`` reply tears the backend down and raises ``RuntimeError``
— the PR 5 fail-loudly contract.  With :attr:`MultiprocessingBackend.
supervised` set (done by sessions holding a
:class:`~repro.runtime.recovery.RecoveryManager`), the backend instead
raises :class:`~repro.runtime.recovery.WorkerDied` and leaves the surviving
workers up, so the session can :meth:`~MultiprocessingBackend.recover`:
respawn dead processes, broadcast a ``reset`` that rebuilds every worker
from a checkpoint batch, and discard the stale replies the aborted round
left behind (each reply queue is drained until the distinctive ``reset_ok``
acknowledgement — commands are served strictly in order, so everything
before it is garbage from the dead round).
"""

from __future__ import annotations

import multiprocessing
import queue
import time
import traceback
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
from .quiescence import QuiescenceDetector
from .routing import RoutingTable, Transfer
from .shard import LocalReport, ShardWorker

__all__ = ["MultiprocessingBackend"]

#: Seconds a queue read may block before the backend declares the worker dead.
_REPLY_TIMEOUT = 300.0

#: Poll granularity of reply reads: a dead worker is detected within about
#: this many seconds regardless of :data:`_REPLY_TIMEOUT`.
_LIVENESS_INTERVAL = 0.05


def _shard_worker_main(
    shard: int,
    reactions: Sequence[Reaction],
    num_shards: int,
    seed: Optional[int],
    compiled: bool,
    commands: "multiprocessing.Queue",
    replies: "multiprocessing.Queue",
) -> None:
    """Worker-process entry point: serve shard commands until ``stop``.

    Replies are ``(kind, payload)`` tuples; any exception is reported as an
    ``("error", traceback_text)`` reply before the process exits, so the
    coordinator fails loudly instead of deadlocking on a silent worker death.
    """
    try:
        worker = ShardWorker(shard, reactions, seed=seed, compiled=compiled)
        routing = RoutingTable(reactions, num_shards)
        while True:
            command, payload = commands.get()
            if command == "stop":
                worker.close()
                replies.put(("stopped", shard))
                return
            if command == "load" or command == "ingest":
                copies = worker.ingest(from_column_batch(payload))
                replies.put(("ok", copies))
            elif command == "step":
                max_supersteps, budget = payload
                report = worker.run_local(max_supersteps=max_supersteps, budget=budget)
                replies.put(
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
                    )
                )
            elif command == "labels":
                replies.put(("labels", worker.label_counts()))
            elif command == "extract_labels":
                pairs = worker.extract_labels(payload)
                replies.put(("batch", to_column_batch(pairs)))
            elif command == "extract_some":
                pairs = worker.extract_some(payload, routing)
                replies.put(("batch", to_column_batch(pairs)))
            elif command == "snapshot":
                replies.put(("batch", to_column_batch(worker.counts())))
            elif command == "reset":
                # Recovery restore: discard whatever state this worker holds
                # and rebuild it from a checkpoint batch.  The distinctive
                # reply kind lets the coordinator drain stale replies from an
                # aborted round off this queue until the acknowledgement.
                worker.close()
                worker = ShardWorker(shard, reactions, seed=seed, compiled=compiled)
                worker.ingest(from_column_batch(payload))
                replies.put(("reset_ok", shard))
            elif command == "sleep":
                # Fault-injection hook: delay the *next* replies without
                # killing the worker (no reply of its own), so tests can pin
                # that liveness polling never declares a slow worker dead.
                time.sleep(payload)
            else:  # pragma: no cover - protocol bug
                raise ValueError(f"unknown shard command {command!r}")
    except BaseException:
        replies.put(("error", traceback.format_exc()))
        raise


class MultiprocessingBackend:
    """Shard backend running every worker in its own OS process."""

    name = "multiprocessing"

    def __init__(
        self,
        reactions: Sequence[Reaction],
        num_shards: int,
        routing: RoutingTable,
        seed: Optional[int] = None,
        compiled: bool = True,
    ) -> None:
        """Spawn ``num_shards`` worker processes (not yet loaded).

        Workers are started eagerly so construction fails fast when the
        platform cannot create processes at all.
        """
        self.routing = routing
        self.num_shards = num_shards
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._worker_args = (tuple(reactions), num_shards, seed, compiled)
        self._commands: List[Any] = [None] * num_shards
        self._replies: List[Any] = [None] * num_shards
        self._processes: List[Any] = [None] * num_shards
        for shard in range(num_shards):
            self._spawn(shard)
        self._stopped = False
        #: When True, worker death raises :class:`WorkerDied` (leaving the
        #: backend up for :meth:`recover`) instead of tearing everything down.
        self.supervised = False

    # -- plumbing ----------------------------------------------------------------
    def _spawn(self, shard: int) -> None:
        """(Re)create shard ``shard``'s queues and worker process."""
        reactions, num_shards, seed, compiled = self._worker_args
        self._commands[shard] = self._context.Queue()
        self._replies[shard] = self._context.Queue()
        self._processes[shard] = self._context.Process(
            target=_shard_worker_main,
            args=(
                shard,
                reactions,
                num_shards,
                seed,
                compiled,
                self._commands[shard],
                self._replies[shard],
            ),
            daemon=True,
        )
        self._processes[shard].start()

    def _send(self, shard: int, command: str, payload: Any = None) -> None:
        self._commands[shard].put((command, payload))

    def _dead(self, shard: int, reason: str) -> "Exception":
        """Build the error for a lost worker, per supervision mode.

        Supervised: :class:`WorkerDied`, backend left running so the session
        can :meth:`recover`.  Unsupervised: full teardown plus
        ``RuntimeError`` — the fail-loudly contract.
        """
        if self.supervised:
            return WorkerDied(shard, reason)
        self.stop()
        return RuntimeError(f"shard {shard} worker {reason}")

    def _next_reply(self, shard: int, expected: str) -> Tuple[str, Any]:
        """Read shard ``shard``'s next reply, polling process liveness.

        Blocks at most :data:`_REPLY_TIMEOUT` seconds total, but checks
        ``is_alive()`` every :data:`_LIVENESS_INTERVAL`, so a killed worker
        surfaces within the poll interval instead of the full timeout.  After
        observing death, one last non-blocking read drains a reply that may
        have been enqueued before the process died.
        """
        replies = self._replies[shard]
        process = self._processes[shard]
        deadline = time.monotonic() + _REPLY_TIMEOUT
        while True:
            try:
                return replies.get(timeout=_LIVENESS_INTERVAL)
            except queue.Empty:
                pass
            if not process.is_alive():
                try:
                    return replies.get_nowait()
                except queue.Empty:
                    raise self._dead(
                        shard, f"died awaiting {expected!r} reply"
                    ) from None
            if time.monotonic() >= deadline:
                if self.supervised:
                    # An unresponsive-but-alive worker under supervision is
                    # indistinguishable from a livelock: reclaim it the same
                    # way a crash would be handled.
                    process.kill()
                    process.join(timeout=10)
                raise self._dead(
                    shard,
                    f"unresponsive for {_REPLY_TIMEOUT:.0f}s awaiting "
                    f"{expected!r} reply (process "
                    f"{'alive' if process.is_alive() else 'dead'})",
                ) from None

    def _recv(self, shard: int, expected: str) -> Any:
        kind, payload = self._next_reply(shard, expected)
        if kind == "error":
            raise self._dead(shard, f"failed:\n{payload}")
        if kind != expected:  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"shard {shard}: expected {expected!r} reply, got {kind!r}"
            )
        return payload

    # -- protocol ----------------------------------------------------------------
    def load(self, partitions: Sequence[Sequence[Tuple[Element, int]]]) -> None:
        """Ship the initial hash partitions to the workers (one batch each)."""
        for shard, batch in enumerate(partitions):
            self._send(shard, "load", to_column_batch(batch))
        for shard in range(self.num_shards):
            self._recv(shard, "ok")

    def superstep_all(
        self,
        max_supersteps: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> List[LocalReport]:
        """Run one local round on every shard concurrently; reports in shard order.

        The ``step`` command is broadcast to every worker before any reply is
        read, so the shards' local supersteps execute in parallel across
        cores.
        """
        for shard in range(self.num_shards):
            self._send(shard, "step", (max_supersteps, budget))
        reports = []
        for shard in range(self.num_shards):
            fields = self._recv(shard, "report")
            reports.append(LocalReport(*fields))
        return reports

    def label_counts(self) -> List[Dict[str, int]]:
        """Per-shard label histograms (elasticity's mid-run read)."""
        for shard in range(self.num_shards):
            self._send(shard, "labels")
        return [self._recv(shard, "labels") for shard in range(self.num_shards)]

    def execute_transfers(
        self, transfers: Sequence[Transfer], detector: QuiescenceDetector
    ) -> Tuple[int, int]:
        """Apply an exchange plan; returns ``(copies_moved, batches_sent)``.

        Extractions are broadcast first (all sources drain concurrently),
        then each batch is forwarded to its destination — the coordinator is
        the switch fabric; batches never travel worker-to-worker directly.
        """
        for transfer in transfers:
            self._send(transfer.source, "extract_labels", list(transfer.labels))
        moved = 0
        batches = 0
        deliveries: List[Tuple[int, int]] = []
        for transfer in transfers:
            batch = self._recv(transfer.source, "batch")
            copies = column_batch_copies(batch)
            if not copies:
                continue
            detector.migrations_started(copies)
            self._send(transfer.destination, "ingest", batch)
            deliveries.append((transfer.destination, copies))
            batches += 1
            moved += copies
        for destination, copies in deliveries:
            self._recv(destination, "ok")
            detector.migrations_delivered(destination, copies)
        return moved, batches

    def steal(
        self,
        donor: int,
        thief: int,
        limit: int,
        detector: QuiescenceDetector,
    ) -> int:
        """Move up to ``limit`` routable copies from ``donor`` to ``thief``."""
        self._send(donor, "extract_some", limit)
        batch = self._recv(donor, "batch")
        copies = column_batch_copies(batch)
        if not copies:
            return 0
        detector.migrations_started(copies)
        self._send(thief, "ingest", batch)
        self._recv(thief, "ok")
        detector.migrations_delivered(thief, copies)
        return copies

    def ingest_batches(
        self, partitions: Sequence[Sequence[Tuple[Element, int]]]
    ) -> List[int]:
        """Routed streaming injection: one queued batch per non-empty shard.

        Batches are broadcast before any reply is read (shards ingest
        concurrently); returns the copies ingested per shard.
        """
        targets = [
            shard for shard, batch in enumerate(partitions) if batch
        ]
        for shard in targets:
            self._send(shard, "ingest", to_column_batch(partitions[shard]))
        copies = [0] * self.num_shards
        for shard in targets:
            copies[shard] = self._recv(shard, "ok")
        return copies

    def snapshot_all(self) -> Multiset:
        """Non-destructive union of every shard's partition (mid-stream read).

        Safe between rounds: workers serve commands strictly in order, so a
        snapshot taken at a barrier observes a consistent global state.
        """
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
        """Autoscale to ``num_shards`` worker processes and load ``partitions``.

        Growing spawns fresh processes for the new shard indexes; shrinking
        stops and reclaims the excess ones.  Every remaining worker then
        receives a ``reset`` with its repartitioned batch — the same
        checkpoint-restore broadcast :meth:`recover` uses, so a scale event
        is a planned, loss-free rebuild.  Dead workers are respawned first,
        which makes a resize retried after a mid-resize death idempotent.

        Surviving workers keep their original worker-side routing tables
        (stale ``num_shards``); that is harmless because workers only use
        routing for routability checks, which are home-independent.
        """
        self.respawn(self.dead_shards())
        reactions, _, seed, compiled = self._worker_args
        self._worker_args = (reactions, num_shards, seed, compiled)
        if num_shards > self.num_shards:
            for shard in range(self.num_shards, num_shards):
                self._commands.append(None)
                self._replies.append(None)
                self._processes.append(None)
                self._spawn(shard)
        elif num_shards < self.num_shards:
            for shard in range(num_shards, self.num_shards):
                process = self._processes[shard]
                if process.is_alive():
                    try:
                        self._commands[shard].put(("stop", None))
                    except (OSError, ValueError):  # pragma: no cover - teardown race
                        pass
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join(timeout=10)
                for channel in (self._commands[shard], self._replies[shard]):
                    try:
                        channel.close()
                        channel.cancel_join_thread()
                    except (OSError, ValueError):  # pragma: no cover - teardown race
                        pass
            del self._commands[num_shards:]
            del self._replies[num_shards:]
            del self._processes[num_shards:]
        self.num_shards = num_shards
        for shard in range(num_shards):
            self._send(shard, "reset", to_column_batch(partitions[shard]))
        for shard in range(num_shards):
            while True:
                kind, payload = self._next_reply(shard, "reset_ok")
                if kind == "reset_ok":
                    break
                if kind == "error":
                    raise self._dead(shard, f"failed during resize:\n{payload}")

    # -- recovery ----------------------------------------------------------------
    def snapshot_shard_batches(self) -> List[Any]:
        """Every shard's partition as column batches (checkpoint capture).

        Broadcast before any reply is read, so the shards serialize
        concurrently; taken at a barrier this is a consistent cut in the
        exact wire format :meth:`recover` restores from.
        """
        for shard in range(self.num_shards):
            self._send(shard, "snapshot")
        return [self._recv(shard, "batch") for shard in range(self.num_shards)]

    def dead_shards(self) -> List[int]:
        """Shards whose worker process is not alive."""
        return [
            shard
            for shard, process in enumerate(self._processes)
            if not process.is_alive()
        ]

    def respawn(self, shards: Iterable[int]) -> None:
        """Replace the given shards' processes (and queues) with fresh ones.

        The old process is killed and joined; its queues are discarded
        (their contents are garbage from the aborted round) and replaced, so
        the respawned worker starts from an empty, unambiguous channel.
        """
        for shard in shards:
            process = self._processes[shard]
            if process.is_alive():  # pragma: no cover - respawning a survivor
                process.kill()
            process.join(timeout=10)
            for channel in (self._commands[shard], self._replies[shard]):
                try:
                    channel.close()
                    channel.cancel_join_thread()
                except (OSError, ValueError):  # pragma: no cover - teardown race
                    pass
            self._spawn(shard)

    def recover(self, shard_batches: Sequence[Any]) -> List[int]:
        """Roll every shard back to a checkpoint cut; returns respawned shards.

        Dead workers are respawned first, then every worker — survivor or
        respawn — receives ``reset`` with its shard's checkpoint batch.
        Survivors may still owe replies from the round the death aborted;
        because commands are served strictly in order, draining each reply
        queue until the distinctive ``reset_ok`` acknowledgement discards
        exactly that stale traffic and nothing else.
        """
        respawned = self.dead_shards()
        self.respawn(respawned)
        for shard in range(self.num_shards):
            self._send(shard, "reset", shard_batches[shard])
        for shard in range(self.num_shards):
            while True:
                kind, payload = self._next_reply(shard, "reset_ok")
                if kind == "reset_ok":
                    break
                if kind == "error":
                    raise self._dead(shard, f"failed during reset:\n{payload}")
        return respawned

    def stop(self) -> None:
        """Terminate every worker process (idempotent, safe after failures).

        Every teardown step is individually guarded: a worker that already
        died, a queue broken by that death, or a process that ignores
        ``stop`` must not keep the coordinator from reclaiming the rest.
        """
        if self._stopped:
            return
        self._stopped = True
        for shard, process in enumerate(self._processes):
            if process.is_alive():
                try:
                    self._commands[shard].put(("stop", None))
                except (OSError, ValueError):  # pragma: no cover - teardown race
                    pass
        for process in self._processes:
            try:
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join(timeout=10)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        for channel in (*self._commands, *self._replies):
            try:
                channel.close()
                channel.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
