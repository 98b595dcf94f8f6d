"""In-process shard backend: shards as plain objects.

Runs every :class:`~repro.runtime.sharding.shard.ShardWorker` in the calling
process.  There is no physical parallelism, but the backend executes the
*same* coordinator protocol (superstep rounds, routed exchanges, stealing,
two-phase quiescence) with deterministic, seed-reproducible traces — which is
what the differential property tests pin against the sequential compiled
engine, and what makes multiprocessing-backend behavior explainable: both
backends make identical scheduling decisions for the same seed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...gamma.reaction import Reaction
from ...multiset.columnar import from_column_batch, to_column_batch
from ...multiset.element import Element
from ...multiset.multiset import Multiset
from ..recovery import WorkerDied
from .quiescence import QuiescenceDetector
from .routing import RoutingTable, Transfer
from .shard import LocalReport, ShardWorker

__all__ = ["InProcessBackend"]


class InProcessBackend:
    """Shard backend executing every worker in the coordinator's process.

    The backend also implements the recovery surface
    (:meth:`snapshot_shard_batches` / :meth:`recover`): there are no
    processes to die here, but the fault-injection harness simulates a crash
    by wiping a worker's state, so the full checkpoint/rollback/replay path
    is exercised — deterministically and cheaply — without forking.
    """

    name = "inprocess"

    def __init__(
        self,
        reactions: Sequence[Reaction],
        num_shards: int,
        routing: RoutingTable,
        seed: Optional[int] = None,
        compiled: bool = True,
    ) -> None:
        """Create (but do not load) ``num_shards`` local shard workers."""
        self.routing = routing
        self.num_shards = num_shards
        self._worker_args = (tuple(reactions), seed, compiled)
        self.supervised = False
        self.workers: List[ShardWorker] = [
            self._fresh_worker(shard) for shard in range(num_shards)
        ]

    def _fresh_worker(self, shard: int) -> ShardWorker:
        """Build a brand-new (empty) worker for ``shard``."""
        reactions, seed, compiled = self._worker_args
        return ShardWorker(shard, reactions, seed=seed, compiled=compiled)

    # -- protocol ----------------------------------------------------------------
    def load(self, partitions: Sequence[Sequence[Tuple[Element, int]]]) -> None:
        """Load the initial hash partitions into the workers (batched)."""
        for worker, batch in zip(self.workers, partitions):
            worker.ingest(batch)

    def superstep_all(
        self,
        max_supersteps: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> List[LocalReport]:
        """Run one local round on every shard; reports in shard order."""
        return [
            worker.run_local(max_supersteps=max_supersteps, budget=budget)
            for worker in self.workers
        ]

    def label_counts(self) -> List[Dict[str, int]]:
        """Per-shard label histograms (elasticity's mid-run read)."""
        return [worker.label_counts() for worker in self.workers]

    def execute_transfers(
        self, transfers: Sequence[Transfer], detector: QuiescenceDetector
    ) -> Tuple[int, int]:
        """Apply an exchange plan; returns ``(copies_moved, batches_sent)``.

        Every transfer is one batched extraction plus one batched ingest, with
        the in-flight window reported to the quiescence detector.
        """
        moved = 0
        batches = 0
        for transfer in transfers:
            pairs = self.workers[transfer.source].extract_labels(transfer.labels)
            if not pairs:
                continue
            copies = sum(count for _, count in pairs)
            detector.migrations_started(copies)
            batches += 1
            self.workers[transfer.destination].ingest(pairs)
            detector.migrations_delivered(transfer.destination, copies)
            moved += copies
        return moved, batches

    def steal(
        self,
        donor: int,
        thief: int,
        limit: int,
        detector: QuiescenceDetector,
    ) -> int:
        """Move up to ``limit`` routable copies from ``donor`` to ``thief``."""
        pairs = self.workers[donor].extract_some(limit, self.routing)
        if not pairs:
            return 0
        copies = sum(count for _, count in pairs)
        detector.migrations_started(copies)
        self.workers[thief].ingest(pairs)
        detector.migrations_delivered(thief, copies)
        return copies

    def ingest_batches(
        self, partitions: Sequence[Sequence[Tuple[Element, int]]]
    ) -> List[int]:
        """Routed streaming injection: one batch per shard, empty batches skipped.

        Returns the copies ingested per shard (0 for shards whose batch was
        empty), so the caller can invalidate exactly the touched shards'
        phase-1 verdicts.
        """
        copies = [0] * len(self.workers)
        for shard, batch in enumerate(partitions):
            if batch:
                copies[shard] = self.workers[shard].ingest(batch)
        return copies

    def snapshot_all(self) -> Multiset:
        """Non-destructive union of every shard's partition (mid-stream read).

        Safe between rounds: the in-process workers only mutate inside
        protocol calls, so the snapshot observes a consistent global state.
        """
        snapshot = Multiset()
        for worker in self.workers:
            snapshot.add_counts(worker.counts())
        return snapshot

    def collect_final(self) -> Multiset:
        """Union of every shard's partition (the run's final multiset)."""
        return self.snapshot_all()

    def sizes(self) -> List[int]:
        """Current partition sizes (element copies per shard)."""
        return [len(worker.multiset) for worker in self.workers]

    # -- elasticity --------------------------------------------------------------
    def resize(
        self,
        num_shards: int,
        partitions: Sequence[Sequence[Tuple[Element, int]]],
    ) -> None:
        """Rebuild the worker set at ``num_shards`` and load ``partitions``.

        The elastic scale path: every worker is torn down and recreated
        (fresh scheduler, per-shard derived seed for the *new* shard index)
        and each new shard ingests its repartitioned batch.  The caller — a
        :class:`~repro.runtime.sharding.coordinator.ShardSession` — owns
        snapshotting the old state and repartitioning it.
        """
        for worker in self.workers:
            worker.close()
        self.num_shards = num_shards
        self.workers = [self._fresh_worker(shard) for shard in range(num_shards)]
        for worker, batch in zip(self.workers, partitions):
            if batch:
                worker.ingest(batch)

    # -- recovery ----------------------------------------------------------------
    def snapshot_shard_batches(self) -> List[Any]:
        """Every shard's partition as column batches (checkpoint capture)."""
        return [to_column_batch(worker.counts()) for worker in self.workers]

    def recover(self, shard_batches: Sequence[Any]) -> List[int]:
        """Roll every shard back to a checkpoint cut.

        Each worker is rebuilt from scratch (fresh scheduler, same derived
        seed) and reloaded with its shard's checkpoint batch — the same
        semantics as the multiprocessing ``reset`` broadcast.  Returns the
        empty list: in-process workers have no processes to respawn.
        """
        for shard, batch in enumerate(shard_batches):
            self.workers[shard].close()
            self.workers[shard] = self._fresh_worker(shard)
            self.workers[shard].ingest(from_column_batch(batch))
        return []

    # -- fault injection -----------------------------------------------------------
    def kill(self, shard: int) -> None:
        """Simulate a crash of ``shard``: wipe its partition, raise :class:`WorkerDied`.

        There is no process to kill, so the worker's state is discarded
        (real state loss) and the signal a remote backend's supervision
        would raise surfaces directly.
        """
        self.workers[shard].close()
        self.workers[shard] = self._fresh_worker(shard)
        raise WorkerDied(shard, "killed by fault injection")

    #: There is no transport to sever: a dropped connection is a crash.
    drop_connection = kill

    def delay(self, shard: int, seconds: float) -> None:
        """Stall the calling round for ``seconds`` (a slow, live shard)."""
        time.sleep(seconds)

    def stop(self) -> None:
        """Detach every worker's scheduler (idempotent)."""
        for worker in self.workers:
            worker.close()
