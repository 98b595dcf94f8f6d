"""The shard command protocol, written once for every remote pipe.

A :class:`ShardProtocol` owns one shard's
:class:`~repro.runtime.sharding.shard.ShardWorker` and its
:class:`~repro.runtime.sharding.routing.RoutingTable` and answers one
``(command, payload)`` request at a time with one ``(kind, payload)`` reply.
Both remote pipes serve it unchanged: the queue worker loop of
:mod:`repro.runtime.sharding.mp` (get → handle → put) and the socket server
of :mod:`repro.runtime.net.server` (read → handle → write, after its
``auth``/``hello`` preamble).  The coordinator side of the same protocol is
:class:`~repro.runtime.sharding.remote.RemoteBackend`.

Wire protocol (coordinator → shard, strict request/reply order)::

    ("auth", token_bytes)            -> no reply   socket pipe only, first:
        the spawn-time shared secret; a missing or wrong token closes the
        connection without a reply
    ("hello", {num_shards, seed, compiled, reactions, shard})
        -> ("welcome", {"shard": shard})   socket pipe only: the membership
        handshake carrying the arguments the queue pipe passes at spawn
    ("load"|"ingest", column_batch)  -> ("ok", copies)
    ("step", (max_supersteps, budget))
        -> ("report", (shard, fired, supersteps, size, stable, labels))
        ``stable`` is the shard's quiescence vote, ``labels`` its label
        histogram when stable (else None)
    ("labels", None)                 -> ("labels", {label: count})
    ("extract_labels", [label...])   -> ("batch", column_batch)
    ("extract_some", limit)          -> ("batch", column_batch)
    ("snapshot", None)               -> ("batch", column_batch)
    ("reset", column_batch)          -> ("reset_ok", shard)   checkpoint
        restore into a rebuilt worker; the distinctive kind lets the
        coordinator drain stale replies of an aborted round
    ("sleep", seconds)               -> no reply (fault-injection delay)
    ("stop", None)                   -> ("stopped", shard), then exit

Element batches travel as column batches
(:func:`~repro.multiset.columnar.to_column_batch`).  Any exception is
reported as ``("error", traceback_text)`` before the shard exits, so the
coordinator fails loudly instead of hanging on a silent shard.

The module imports only the shard code (no numpy, no coordinator), so a
shard server process stays light.
"""

from __future__ import annotations

import time
from typing import Any, Optional, Sequence, Tuple

from ...gamma.reaction import Reaction
from ...multiset.columnar import from_column_batch, to_column_batch
from .routing import RoutingTable
from .shard import ShardWorker

__all__ = ["ShardProtocol"]


class ShardProtocol:
    """One shard's side of the command protocol over a :class:`ShardWorker`."""

    def __init__(
        self,
        shard: int,
        reactions: Sequence[Reaction],
        num_shards: int,
        seed: Optional[int],
        compiled: bool,
    ) -> None:
        """Build the shard's worker and routing table."""
        self.shard = shard
        self._worker_args = (tuple(reactions), seed, compiled)
        self.routing = RoutingTable(reactions, num_shards)
        self.worker = self._fresh_worker()

    def _fresh_worker(self) -> ShardWorker:
        reactions, seed, compiled = self._worker_args
        return ShardWorker(self.shard, reactions, seed=seed, compiled=compiled)

    def close(self) -> None:
        """Detach the worker's scheduler (idempotent)."""
        self.worker.close()

    def handle(self, command: str, payload: Any) -> Optional[Tuple[str, Any]]:
        """Serve one request; returns its reply, or ``None`` for ``sleep``.

        Raises ``ValueError`` on an unknown command.
        """
        worker = self.worker
        if command == "step":
            max_supersteps, budget = payload
            report = worker.run_local(max_supersteps=max_supersteps, budget=budget)
            return ("report", (report.shard, report.fired, report.supersteps,
                               report.size, report.stable, report.labels))
        if command == "load" or command == "ingest":
            return ("ok", worker.ingest(from_column_batch(payload)))
        if command == "extract_labels":
            return ("batch", to_column_batch(worker.extract_labels(payload)))
        if command == "extract_some":
            return ("batch", to_column_batch(worker.extract_some(payload, self.routing)))
        if command == "labels":
            return ("labels", worker.label_counts())
        if command == "snapshot":
            return ("batch", to_column_batch(worker.counts()))
        if command == "reset":
            worker.close()
            self.worker = self._fresh_worker()
            self.worker.ingest(from_column_batch(payload))
            return ("reset_ok", self.shard)
        if command == "sleep":
            # Delays the *next* replies without a reply of its own, so tests
            # can pin that liveness checks never declare a slow shard dead.
            time.sleep(payload)
            return None
        if command == "stop":
            worker.close()
            return ("stopped", self.shard)
        raise ValueError(f"unknown shard command {command!r}")
