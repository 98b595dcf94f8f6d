"""Remote shard backends: the coordinator side of the shard protocol, once.

:class:`RemoteBackend` drives shards that live in other processes through
the command protocol of :mod:`repro.runtime.sharding.protocol`.  It holds
every protocol method, supervision, elasticity and recovery; a subclass
supplies only its pipe:
:class:`~repro.runtime.sharding.mp.MultiprocessingBackend` (a pair of
``multiprocessing`` queues per shard) and
:class:`~repro.runtime.net.backend.NetworkBackend` (a framed loopback
socket per shard).

Protocol discipline: within one backend call, commands are *broadcast* to
every shard before any reply is read, and replies are collected in shard
order — the shards' work overlaps on real cores, and each channel's
request/reply pairing stays unambiguous without locks.

**Supervision.**  Every reply read is bounded by the reply timeout
(:data:`_REPLY_TIMEOUT`, overridden by the ``REPRO_NET_TIMEOUT``
environment variable in seconds) and fails fast on a dead shard.
Unsupervised (the default), a lost shard or an ``("error", ...)`` reply
tears the backend down and raises ``RuntimeError``.  With
:attr:`RemoteBackend.supervised` set (done by sessions holding a
:class:`~repro.runtime.recovery.RecoveryManager`), it raises
:class:`~repro.runtime.recovery.WorkerDied` and leaves the survivors up, so
the session can :meth:`~RemoteBackend.recover`: respawn the dead shards,
broadcast a ``reset`` that rebuilds every worker from a checkpoint batch,
and drain each channel until the distinctive ``reset_ok`` acknowledgement —
commands are served strictly in order, so everything before it is garbage
from the aborted round.  When a shard is lost during that drain, every shard
still owing its ``reset_ok`` is dropped as well, so a retried recovery
respawns those shards instead of draining one of two acknowledgements.

**Pipe hooks.**  A subclass implements ``_spawn(shards)`` (start the
processes and open their channels), ``_send(shard, command, payload)``,
``_next_reply(shard, expected)`` (the next ``(kind, payload)`` reply within
the reply timeout), ``_alive(shard)``, ``_discard(shard)`` (make a live
shard count as dead) and ``_close(shard)`` (release a channel whose process
is gone).  Hooks signal a lost shard by raising :class:`WorkerDied`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ...gamma.reaction import Reaction
from ...multiset.columnar import column_batch_copies, from_column_batch, to_column_batch
from ...multiset.element import Element
from ...multiset.multiset import Multiset
from ..recovery import WorkerDied
from .quiescence import QuiescenceDetector
from .routing import RoutingTable, Transfer
from .shard import LocalReport

__all__ = ["RemoteBackend"]

#: Default seconds one reply read may take before the shard is declared
#: unresponsive; override with the ``REPRO_NET_TIMEOUT`` environment
#: variable — CI pins a small value so a hung shard fails the job fast.
_REPLY_TIMEOUT = 300.0


def _reply_timeout() -> float:
    """The effective reply timeout (env-overridable for bounded CI runs)."""
    raw = os.environ.get("REPRO_NET_TIMEOUT", "")
    try:
        return float(raw) if raw else _REPLY_TIMEOUT
    except ValueError:  # pragma: no cover - malformed env
        return _REPLY_TIMEOUT


class RemoteBackend:
    """Shard backend whose workers run behind a per-shard command pipe."""

    def __init__(
        self,
        reactions: Sequence[Reaction],
        num_shards: int,
        routing: RoutingTable,
        seed: Optional[int] = None,
        compiled: bool = True,
    ) -> None:
        """Start ``num_shards`` shards (not yet loaded).

        Shards are started eagerly, so construction fails fast when the
        platform cannot create them at all.
        """
        self.routing = routing
        self.num_shards = num_shards
        self._worker_args = (tuple(reactions), num_shards, seed, compiled)
        self._timeout = _reply_timeout()
        self._processes: List[Any] = [None] * num_shards
        self._channels: List[Any] = [None] * num_shards
        self._stopped = False
        #: When True, shard loss raises :class:`WorkerDied` (leaving the
        #: backend up for :meth:`recover`) instead of tearing everything down.
        self.supervised = False
        try:
            self._start(range(num_shards))
        except BaseException:
            self.stop()
            raise

    # -- supervision ---------------------------------------------------------------
    def _died(self, died: WorkerDied) -> Exception:
        """The error to raise for a lost shard, per supervision mode.

        Supervised: ``died`` itself, backend left running so the session can
        :meth:`recover`.  Unsupervised: full teardown plus ``RuntimeError`` —
        the fail-loudly contract.
        """
        if self.supervised:
            return died
        self.stop()
        return RuntimeError(f"shard {died.shard} worker {died.reason}")

    def _start(self, shards: Iterable[int]) -> None:
        try:
            self._spawn(list(shards))
        except WorkerDied as died:
            raise self._died(died) from None

    def _post(self, shard: int, command: str, payload: Any = None) -> None:
        try:
            self._send(shard, command, payload)
        except WorkerDied as died:
            raise self._died(died) from None

    def _recv(self, shard: int, expected: str) -> Any:
        """Shard ``shard``'s next reply payload, which must be of kind ``expected``."""
        try:
            kind, payload = self._next_reply(shard, expected)
        except WorkerDied as died:
            raise self._died(died) from None
        if kind == "error":
            raise self._died(WorkerDied(shard, f"failed:\n{payload}"))
        if kind != expected:  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"shard {shard}: expected {expected!r} reply, got {kind!r}"
            )
        return payload

    # -- protocol ----------------------------------------------------------------
    def load(self, partitions: Sequence[Sequence[Tuple[Element, int]]]) -> None:
        """Ship the initial hash partitions to the shards (one batch each)."""
        for shard, batch in enumerate(partitions):
            self._post(shard, "load", to_column_batch(batch))
        for shard in range(self.num_shards):
            self._recv(shard, "ok")

    def superstep_all(
        self,
        max_supersteps: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> List[LocalReport]:
        """Run one local round on every shard concurrently; reports in shard order."""
        for shard in range(self.num_shards):
            self._post(shard, "step", (max_supersteps, budget))
        return [
            LocalReport(*self._recv(shard, "report"))
            for shard in range(self.num_shards)
        ]

    def label_counts(self) -> List[Dict[str, int]]:
        """Per-shard label histograms (elasticity's mid-run read)."""
        for shard in range(self.num_shards):
            self._post(shard, "labels")
        return [self._recv(shard, "labels") for shard in range(self.num_shards)]

    def execute_transfers(
        self, transfers: Sequence[Transfer], detector: QuiescenceDetector
    ) -> Tuple[int, int]:
        """Apply an exchange plan; returns ``(copies_moved, batches_sent)``.

        Extractions are broadcast first (all sources drain concurrently),
        then each batch is forwarded to its destination — the coordinator is
        the switch fabric; batches never travel shard-to-shard directly.
        """
        for transfer in transfers:
            self._post(transfer.source, "extract_labels", list(transfer.labels))
        moved = 0
        batches = 0
        deliveries: List[Tuple[int, int]] = []
        for transfer in transfers:
            batch = self._recv(transfer.source, "batch")
            copies = column_batch_copies(batch)
            if not copies:
                continue
            detector.migrations_started(copies)
            self._post(transfer.destination, "ingest", batch)
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
        self._post(donor, "extract_some", limit)
        batch = self._recv(donor, "batch")
        copies = column_batch_copies(batch)
        if not copies:
            return 0
        detector.migrations_started(copies)
        self._post(thief, "ingest", batch)
        self._recv(thief, "ok")
        detector.migrations_delivered(thief, copies)
        return copies

    def ingest_batches(
        self, partitions: Sequence[Sequence[Tuple[Element, int]]]
    ) -> List[int]:
        """Routed streaming injection: one batch per non-empty shard.

        Batches are broadcast before any reply is read (shards ingest
        concurrently); returns the copies ingested per shard.
        """
        targets = [shard for shard, batch in enumerate(partitions) if batch]
        for shard in targets:
            self._post(shard, "ingest", to_column_batch(partitions[shard]))
        copies = [0] * self.num_shards
        for shard in targets:
            copies[shard] = self._recv(shard, "ok")
        return copies

    def snapshot_all(self) -> Multiset:
        """Non-destructive union of every shard's partition (mid-stream read).

        Safe between rounds: shards serve commands strictly in order, so a
        snapshot taken at a barrier observes a consistent global state.
        """
        snapshot = Multiset()
        for batch in self.snapshot_shard_batches():
            snapshot.add_counts(from_column_batch(batch))
        return snapshot

    def collect_final(self) -> Multiset:
        """Union of every shard's partition (the run's final multiset)."""
        return self.snapshot_all()

    def snapshot_shard_batches(self) -> List[Any]:
        """Every shard's partition as column batches (checkpoint capture).

        Broadcast before any reply is read, so the shards serialize
        concurrently; taken at a barrier this is a consistent cut in the
        exact wire format :meth:`recover` restores from.
        """
        for shard in range(self.num_shards):
            self._post(shard, "snapshot")
        return [self._recv(shard, "batch") for shard in range(self.num_shards)]

    # -- elasticity --------------------------------------------------------------
    def resize(
        self,
        num_shards: int,
        partitions: Sequence[Sequence[Tuple[Element, int]]],
    ) -> None:
        """Autoscale to ``num_shards`` shards and load ``partitions``.

        Dead shards are respawned first, which makes a resize retried after a
        mid-resize death idempotent.  Growing starts fresh shards for the new
        indexes; shrinking stops the excess ones.  Every remaining shard then
        receives a ``reset`` with its repartitioned batch — the same
        checkpoint-restore broadcast :meth:`recover` uses, so a scale event
        is a planned, loss-free rebuild.

        Surviving shards keep their original routing tables (stale
        ``num_shards``); that is harmless because shards only use routing
        for routability checks, which are home-independent.
        """
        self.respawn(self.dead_shards())
        reactions, _, seed, compiled = self._worker_args
        self._worker_args = (reactions, num_shards, seed, compiled)
        grown = range(self.num_shards, num_shards)
        for shard in range(num_shards, self.num_shards):
            self._retire(shard)
        del self._processes[num_shards:]
        del self._channels[num_shards:]
        self._processes.extend(None for _ in grown)
        self._channels.extend(None for _ in grown)
        self.num_shards = num_shards
        self._start(grown)
        self._reset_all([to_column_batch(batch) for batch in partitions])

    def _retire(self, shard: int) -> None:
        """Gracefully stop one shard (shrink path; best effort)."""
        try:
            self._send(shard, "stop")
            self._next_reply(shard, "stopped")
        except WorkerDied:
            pass
        self._reap(shard)

    # -- recovery ----------------------------------------------------------------
    def dead_shards(self) -> List[int]:
        """Shards whose process or channel is gone."""
        return [shard for shard in range(self.num_shards) if not self._alive(shard)]

    def respawn(self, shards: Iterable[int]) -> None:
        """Replace the given shards' processes and channels with fresh ones.

        The old process is killed and joined and its channel discarded (any
        buffered traffic is garbage from the aborted round), so the
        respawned shard starts from an empty, unambiguous channel.
        """
        shards = list(shards)
        for shard in shards:
            if self._processes[shard] is not None:
                self._processes[shard].kill()
            self._reap(shard)
        self._start(shards)

    def recover(self, shard_batches: Sequence[Any]) -> List[int]:
        """Roll every shard back to a checkpoint cut; returns respawned shards.

        Dead shards are respawned first, then every shard — survivor or
        respawn — receives ``reset`` with its checkpoint batch.
        """
        respawned = self.dead_shards()
        self.respawn(respawned)
        self._reset_all(shard_batches)
        return respawned

    def _reset_all(self, batches: Sequence[Any]) -> None:
        """Broadcast ``reset``; drain each channel until its ``reset_ok``.

        A shard lost midway drops every shard still owing a ``reset_ok``
        (see the module docstring), so the retry respawns them.
        """
        owing: List[int] = []
        try:
            for shard in range(self.num_shards):
                self._send(shard, "reset", batches[shard])
                owing.append(shard)
            while owing:
                kind, payload = self._next_reply(owing[0], "reset_ok")
                if kind == "reset_ok":
                    owing.pop(0)
                elif kind == "error":
                    raise WorkerDied(owing[0], f"failed during reset:\n{payload}")
        except WorkerDied as died:
            for shard in owing:
                self._discard(shard)
            raise self._died(died) from None

    # -- fault injection -----------------------------------------------------------
    def kill(self, shard: int) -> None:
        """SIGKILL shard ``shard``'s process; the next reply read reports it."""
        self._processes[shard].kill()

    def delay(self, shard: int, seconds: float) -> None:
        """Make shard ``shard`` sleep before its next command (late, not dead)."""
        self._post(shard, "sleep", seconds)

    def drop_connection(self, shard: int) -> None:
        """Sever shard ``shard``'s channel; the next read reports it dead."""
        self._discard(shard)

    # -- teardown ----------------------------------------------------------------
    def _reap(self, shard: int) -> None:
        """Join shard ``shard``'s process (killing a stuck one), close its channel."""
        process = self._processes[shard]
        if process is not None:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - stuck shard
                process.kill()
                process.join(timeout=10)
        self._close(shard)

    def stop(self) -> None:
        """Stop every shard (idempotent, safe after failures).

        Every teardown step is individually guarded: a shard that already
        died, a channel broken by that death, or a process that ignores
        ``stop`` must not keep the coordinator from reclaiming the rest.
        """
        if self._stopped:
            return
        self._stopped = True
        for shard in range(len(self._processes)):
            if self._alive(shard):
                try:
                    self._send(shard, "stop")
                except Exception:  # pragma: no cover - teardown race
                    pass
        for shard in range(len(self._processes)):
            try:
                self._reap(shard)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
