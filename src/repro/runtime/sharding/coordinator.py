"""Shard coordinator: the superstep-barrier protocol over N shard workers.

The coordinator owns the global control loop; shards own all element state.
One *round* of the protocol:

1. **local fixpoint** — every shard fires maximal disjoint local match
   batches through its compiled scheduler until locally stable (or a cap);
   the multiprocessing and network backends overlap the shards on real
   cores.  A stable shard's step reply carries its label histogram, so the
   barrier needs no further message to plan an exchange;
2. **rebalancing** (opt-in, ``work_stealing=True``) — if the round made
   progress but some shards starved while others are heavily loaded, the
   starving shards *steal* a batch of routable elements from the most-loaded
   donor (transfers are batched, never one message per element);
3. **exchange** — once every shard is locally stable (in the same round, even
   if they fired on the way there), the routing table derived from reaction
   footprints plans batched migrations from the reported histograms that
   co-locate every consumable label at its home shard, enabling cross-shard
   matches;
4. **termination** — the two-phase quiescence check: all shards locally
   stable, no migration in flight, and an empty exchange plan (which
   certifies that no cross-shard match exists).

With stealing or elasticity active, a round whose shards fired returns
before the exchange (both mutate shards after the reports, making the
reported histograms stale) and the next round re-steps the shards.
``round_supersteps=1`` recovers lock-step supersteps: a shard then reports
stable only when it fired nothing.

A batch run is one :class:`ShardSession` driven to the drained verdict; the
streaming runtime (:mod:`repro.runtime.streaming`) holds a session open
instead, alternating routed injections (:meth:`ShardSession.inject` routes
each epoch batch to its elements' stable-hash home shards) with
:meth:`ShardSession.drive` rounds that stop at *idle* — stable but stream
open — rather than terminating.

Determinism: given a seed (or none), the protocol makes identical decisions
under both backends — worker scheduling uses per-shard derived seeds and the
coordinator's policy (donor choice, batch sizes, plan order) is pure — so
in-process and multiprocessing runs of the same program agree firing-for-
firing, which the differential tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from ...gamma.engine import NonTerminationError
from ...gamma.program import GammaProgram
from ...multiset.columnar import from_column_batch, to_column_batch
from ...multiset.element import Element
from ...multiset.multiset import Multiset
from ...multiset.partition import partition_counts, partition_pairs
from ..distributed import DistributedRunResult
from ..elasticity import ElasticityPolicy
from ..recovery import INITIAL_EPOCH, RecoveryManager, WorkerDied
from .inprocess import InProcessBackend
from .mp import MultiprocessingBackend
from .quiescence import RUNNING, QuiescenceDetector
from .routing import RoutingTable, Transfer

__all__ = ["ShardCoordinator", "ShardSession", "ShardedRunResult", "SHARD_BACKENDS"]

#: Backend names accepted by :class:`ShardCoordinator` and by
#: :class:`~repro.runtime.distributed.DistributedGammaRuntime`.
SHARD_BACKENDS = ("inprocess", "multiprocessing", "network")

_BACKENDS = {
    "inprocess": InProcessBackend,
    "multiprocessing": MultiprocessingBackend,
}


def _backend_class(name: str):
    """Resolve a backend name to its class.

    The network backend is registered lazily: :mod:`repro.runtime.net`
    imports this package's leaf modules, so a module-level import here would
    cycle through the package ``__init__``.
    """
    if name not in _BACKENDS and name == "network":
        from ..net.backend import NetworkBackend

        _BACKENDS[name] = NetworkBackend
    return _BACKENDS[name]


@dataclass
class ShardedRunResult(DistributedRunResult):
    """Outcome of a sharded execution.

    Extends :class:`~repro.runtime.distributed.DistributedRunResult` (so the
    two runtimes report through one interface; ``steps`` counts barrier
    *rounds* here) with the sharded protocol's own accounting: local
    supersteps, exchange and steal rounds, and the final per-shard sizes.
    """

    backend: str = "inprocess"
    rounds: int = 0
    supersteps: int = 0
    exchanges: int = 0
    steals: int = 0
    final_shard_sizes: List[int] = field(default_factory=list)
    recoveries: int = 0
    replayed: int = 0
    scale_events: int = 0
    group_migrations: int = 0
    injected: int = 0
    wire_bytes: int = 0


class ShardCoordinator:
    """Partition a Gamma run across N shard workers and drive it to quiescence.

    Parameters
    ----------
    program:
        The Gamma program to execute.
    num_shards:
        Shard count; the initial multiset is hash-partitioned over the
        shards by :meth:`Element.stable_hash`.
    backend:
        ``"inprocess"`` (default), ``"multiprocessing"``, or ``"network"``
        (shard servers behind framed loopback sockets) — see
        :data:`SHARD_BACKENDS`.
    seed:
        Optional run seed; forwarded to the shards' schedulers through
        per-shard derived seeds.  ``None`` selects fully deterministic
        declaration-order scheduling.
    max_rounds:
        Barrier-round budget; exceeded budgets raise
        :class:`~repro.gamma.engine.NonTerminationError`.
    max_supersteps:
        Global budget on shard supersteps (summed over shards), the
        divergence guard for programs that always have local matches.
    superstep_budget:
        Cap on firings per local superstep (``None`` = maximal batches).
    round_supersteps:
        Local supersteps each shard may fire per barrier round.  ``None``
        (default) runs every shard to its local fixpoint per round, so a
        round is one barrier plus at most one exchange; ``1`` is lock-step
        supersteps, the step model of cost studies that count rounds as
        steps (and what lets stealing observe starvation early).
    compiled:
        Compiled schedulers (default) or the interpreted baseline.
    work_stealing:
        Enable load-driven rebalancing of starving shards (default off;
        most useful with ``round_supersteps=1``).
    steal_threshold:
        A starving shard steals only from a donor holding more than
        ``steal_threshold`` times its own load (plus one).
    recovery:
        Optional :class:`~repro.runtime.recovery.RecoveryManager`.  When
        set, the backend runs *supervised*: a dead worker triggers a
        rollback to the last checkpoint plus WAL replay instead of a
        ``RuntimeError``, and the session takes an initial checkpoint at
        load so there is always a cut to roll back to.
    checkpoint_rounds:
        With ``recovery``, additionally checkpoint every N barrier rounds
        during :meth:`ShardSession.drive` (batch-mode checkpointing; the
        streaming runtime checkpoints at epoch boundaries instead).
    elasticity:
        Optional :class:`~repro.runtime.elasticity.ElasticityPolicy`.  When
        set, the session watches per-round load pressure and — at superstep
        barriers — migrates hot label groups between shards and splits or
        merges the shard set when the policy's hysteresis thresholds are
        crossed (see :mod:`repro.runtime.elasticity`).  ``num_shards``
        becomes the *starting* shard count.
    """

    def __init__(
        self,
        program: GammaProgram,
        num_shards: int,
        backend: str = "inprocess",
        seed: Optional[int] = None,
        max_rounds: int = 1_000_000,
        max_supersteps: int = 1_000_000,
        superstep_budget: Optional[int] = None,
        round_supersteps: Optional[int] = None,
        compiled: bool = True,
        work_stealing: bool = False,
        steal_threshold: float = 2.0,
        recovery: Optional[RecoveryManager] = None,
        checkpoint_rounds: Optional[int] = None,
        elasticity: Optional[ElasticityPolicy] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown shard backend {backend!r}; expected one of {SHARD_BACKENDS}"
            )
        if max_rounds <= 0 or max_supersteps <= 0:
            raise ValueError("round/superstep budgets must be positive")
        if superstep_budget is not None and superstep_budget <= 0:
            raise ValueError(
                "superstep_budget must be positive (or None for maximal batches)"
            )
        if round_supersteps is not None and round_supersteps <= 0:
            raise ValueError("round_supersteps must be positive (or None)")
        if steal_threshold < 1.0:
            raise ValueError("steal_threshold must be >= 1.0")
        if checkpoint_rounds is not None:
            if recovery is None:
                raise ValueError("checkpoint_rounds requires a RecoveryManager")
            if checkpoint_rounds <= 0:
                raise ValueError("checkpoint_rounds must be positive (or None)")
        self.program = program
        self.num_shards = num_shards
        self.backend_name = backend
        self.seed = seed
        self.max_rounds = max_rounds
        self.max_supersteps = max_supersteps
        self.superstep_budget = superstep_budget
        self.round_supersteps = round_supersteps
        self.compiled = compiled
        self.work_stealing = work_stealing
        self.steal_threshold = steal_threshold
        self.recovery = recovery
        self.checkpoint_rounds = checkpoint_rounds
        self.elasticity = elasticity
        self._initial_shards = num_shards
        self.routing = RoutingTable(program.reactions, num_shards)

    # -- execution ----------------------------------------------------------------
    def run(self, initial: Optional[Multiset] = None) -> ShardedRunResult:
        """Execute the program to global quiescence; returns the run result.

        ``initial`` defaults to the program's bundled initial multiset.
        Raises :class:`NonTerminationError` when a budget is exhausted and
        ``ValueError`` when no initial multiset is available.  Equivalent to
        driving a :meth:`start` session straight to the drained verdict.
        """
        session = self.start(initial)
        try:
            session.drive()
            return session.result()
        finally:
            session.close()

    def start(self, initial: Optional[Multiset] = None) -> "ShardSession":
        """Spin up the backend, load the hash partitions, return the live session.

        The entry point of the streaming runtime: the returned
        :class:`ShardSession` accepts routed injections between
        :meth:`ShardSession.drive` calls.  The caller owns the session and
        must :meth:`ShardSession.close` it (``run`` does this internally).
        """
        source = initial if initial is not None else self.program.initial
        if source is None:
            raise ValueError("an initial multiset is required")
        if self.elasticity is not None:
            # Rearm the policy and restore the starting topology, so one
            # coordinator drives consecutive elastic runs identically.
            self.elasticity.reset()
            self.num_shards = self._initial_shards
            self.routing.rehome(self._initial_shards)
        backend = _backend_class(self.backend_name)(
            self.program.reactions,
            self.num_shards,
            self.routing,
            seed=self.seed,
            compiled=self.compiled,
        )
        if self.recovery is not None:
            backend.supervised = True
        session = ShardSession(self, backend)
        session._load(source)
        return session

    # -- rebalancing -------------------------------------------------------------
    def _rebalance(self, backend, reports, detector) -> tuple:
        """Steal routable elements for shards that starved this round.

        Policy (pure, deterministic): each shard that fired nothing pulls
        from the currently most-loaded shard, provided the donor holds more
        than ``steal_threshold * (thief_size + 1)`` copies; the batch is a
        quarter of the load gap (at least one copy).  Returns
        ``(copies_moved, batches)``.
        """
        sizes = {report.shard: report.size for report in reports}
        starving = [report.shard for report in reports if report.fired == 0]
        moved_total = 0
        batches = 0
        for thief in starving:
            donor = max(
                (shard for shard in sizes if shard != thief),
                key=lambda shard: (sizes[shard], -shard),
                default=None,
            )
            if donor is None:
                break
            if sizes[donor] <= self.steal_threshold * (sizes[thief] + 1):
                continue
            batch = max(1, (sizes[donor] - sizes[thief]) // 4)
            moved = backend.steal(donor, thief, batch, detector)
            if not moved:
                continue
            sizes[donor] -= moved
            sizes[thief] += moved
            moved_total += moved
            batches += 1
        return moved_total, batches


class ShardSession:
    """One live sharded run: loaded shards, detector state, protocol counters.

    Created by :meth:`ShardCoordinator.start`.  A batch run drives the
    session once (:meth:`drive` to the drained verdict) and reads
    :meth:`result`; a streaming run interleaves :meth:`inject` (routed
    element admission) with :meth:`drive` rounds that return at the *idle*
    verdict while the stream is open, and takes consistent mid-stream
    :meth:`snapshot` reads at the barriers.  Budgets (rounds, supersteps)
    span the whole session, batch or streamed.
    """

    def __init__(self, coordinator: ShardCoordinator, backend) -> None:
        self.coordinator = coordinator
        self.backend = backend
        self.recovery = coordinator.recovery
        self.detector = QuiescenceDetector(coordinator.num_shards)
        self.rounds = 0
        self.firings = 0
        self.migrations = 0
        self.messages = 0
        self.supersteps = 0
        self.exchanges = 0
        self.steals = 0
        self.injected = 0
        self.recoveries = 0
        self.replayed = 0
        self.scale_events = 0
        self.group_migrations = 0
        self.recovery_seconds: List[float] = []
        self.per_shard_firings = [0] * coordinator.num_shards
        self._rounds_since_checkpoint = 0
        self._last_checkpoint_epoch = INITIAL_EPOCH
        self._last_injected_epoch = INITIAL_EPOCH
        self._final_sizes: List[int] = []
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------
    def _load(self, source: Multiset) -> None:
        """Ship the initial hash partitions to the shards (one batch each).

        With recovery enabled, an initial checkpoint is taken right after the
        load — the run is never without a cut to roll back to.
        """
        self.backend.load(partition_counts(source, self.coordinator.num_shards))
        self.messages += self.coordinator.num_shards
        if self.recovery is not None:
            self.checkpoint(epoch=INITIAL_EPOCH)

    def close(self) -> None:
        """Stop the backend workers (idempotent)."""
        if not self._closed:
            self._closed = True
            self.backend.stop()

    # -- streaming ----------------------------------------------------------------
    def open_stream(self) -> None:
        """Mark the element stream open: :meth:`drive` stops at *idle*."""
        self.detector.open_stream()

    def close_stream(self) -> None:
        """Mark the stream exhausted: :meth:`drive` runs to *drained*."""
        self.detector.close_stream()

    def inject(
        self, pairs: Sequence[Tuple[Element, int]], epoch: Optional[int] = None
    ) -> int:
        """Admit streamed elements, routed to their stable-hash home shards.

        Each ``(element, count)`` pair is shipped to ``home_of(element)`` —
        the same placement the initial load used, so routing stays uniform
        across the element's whole lifetime.  Touched shards have their
        phase-1 stability invalidated (the next :meth:`drive` re-probes
        them); untouched shards stay parked.  Returns copies admitted.

        With recovery enabled the batch is appended to the write-ahead log
        *before* any shard sees it — durable before visible — tagged with
        ``epoch`` (the streaming runtime passes its pump index; the default
        is the first epoch after the last checkpoint).  If a worker dies
        during the admission, the rollback's WAL replay delivers this very
        batch, so the call still returns the admitted copies.
        """
        pairs = list(pairs)
        record = None
        if self.recovery is not None:
            if epoch is None:
                epoch = self._last_checkpoint_epoch + 1
            self._last_injected_epoch = max(self._last_injected_epoch, epoch)
            record = self.recovery.log_injection(epoch, pairs)
        batches = partition_pairs(pairs, self.coordinator.num_shards)
        try:
            copies = self.backend.ingest_batches(batches)
        except WorkerDied as failure:
            checkpoint_epoch = self._recover_from(failure)
            if record is not None and record.epoch > checkpoint_epoch:
                # The replay already admitted this batch (and invalidated the
                # touched shards' phase-1 verdicts); don't deliver it twice.
                admitted = record.copies()
                self.injected += admitted
                return admitted
            copies = self._guarded(self.backend.ingest_batches, batches)
        for shard, count in enumerate(copies):
            self.detector.injected(shard, count)
        self.messages += sum(1 for batch in batches if batch)
        admitted = sum(copies)
        self.injected += admitted
        return admitted

    def snapshot(self) -> Multiset:
        """Consistent global multiset at the current barrier (non-destructive)."""
        self.messages += self.coordinator.num_shards
        return self._guarded(self.backend.snapshot_all)

    # -- recovery -----------------------------------------------------------------
    def checkpoint(self, epoch: Optional[int] = None) -> int:
        """Capture a consistent cut of every shard into the checkpoint store.

        Call only at a barrier (between :meth:`drive` rounds / after a
        returned verdict) — that is what makes the cut consistent.  ``epoch``
        tags the cut for WAL truncation and replay selection; the streaming
        runtime passes its pump index, batch mode defaults to the current
        round count.  Returns the epoch checkpointed.
        """
        if self.recovery is None:
            raise RuntimeError("checkpoint() requires a RecoveryManager")
        if epoch is None:
            epoch = max(self.rounds, self._last_checkpoint_epoch)
        batches = self._guarded(self.backend.snapshot_shard_batches)
        self.messages += self.coordinator.num_shards
        self.recovery.checkpoint(
            epoch,
            batches,
            counters={
                "rounds": self.rounds,
                "firings": self.firings,
                "supersteps": self.supersteps,
                "injected": self.injected,
                "migrations": self.migrations,
            },
        )
        self._last_checkpoint_epoch = epoch
        self._rounds_since_checkpoint = 0
        return epoch

    def _recover_from(self, failure: WorkerDied) -> int:
        """Roll back to the latest checkpoint and replay logged admissions.

        Restores *every* shard (not just the dead one — elements migrated
        since the checkpoint make a single-shard restore inconsistent),
        resets the quiescence detector, then re-injects each WAL record
        newer than the checkpoint in sequence order.  A worker dying during
        the recovery itself restarts it, bounded by the manager's
        ``max_recoveries`` budget.  Returns the checkpoint epoch restored.

        Session counters are *not* rewound: they count work performed,
        including work redone after a crash (rewinding them would corrupt
        the streaming runtime's per-epoch deltas and the round budgets).
        """
        if self.recovery is None:
            raise failure
        began = perf_counter()
        while True:
            self.recovery.note_failure(failure)
            checkpoint, records = self.recovery.recovery_plan()
            shard_batches = list(checkpoint.shard_batches)
            if len(shard_batches) != self.coordinator.num_shards:
                # The latest checkpoint predates an elastic resize: decode it
                # and repartition over the current topology before restoring.
                pairs: List[Tuple[Element, int]] = []
                for batch in shard_batches:
                    pairs.extend(from_column_batch(batch))
                shard_batches = [
                    to_column_batch(part)
                    for part in partition_pairs(pairs, self.coordinator.num_shards)
                ]
            try:
                self.backend.recover(shard_batches)
                self.messages += self.coordinator.num_shards
                self.detector.rollback()
                for record in records:
                    batches = partition_pairs(
                        record.pairs(), self.coordinator.num_shards
                    )
                    copies = self.backend.ingest_batches(batches)
                    for shard, count in enumerate(copies):
                        self.detector.injected(shard, count)
                    self.messages += sum(1 for batch in batches if batch)
                    self.replayed += record.copies()
                break
            except WorkerDied as again:
                failure = again
        self.recoveries += 1
        self.recovery_seconds.append(perf_counter() - began)
        return checkpoint.epoch

    def _guarded(self, operation, *args):
        """Run a backend call, recovering and retrying on worker death.

        Without a recovery manager the backend never raises
        :class:`WorkerDied` (it tears down and raises ``RuntimeError``), so
        the except branch only engages under supervision.
        """
        while True:
            try:
                return operation(*args)
            except WorkerDied as failure:
                self._recover_from(failure)

    # -- the barrier loop ---------------------------------------------------------
    def drive(self, max_new_rounds: Optional[int] = None) -> str:
        """Run barrier rounds until the detector's verdict leaves ``RUNNING``.

        Returns :data:`~repro.runtime.sharding.quiescence.DRAINED` when the
        run may terminate, or
        :data:`~repro.runtime.sharding.quiescence.IDLE` when every shard is
        stable and nothing is in flight but the stream is still open (the
        streaming runtime then waits for input and injects the next epoch).
        ``max_new_rounds`` caps the barrier rounds of *this* call (the
        streaming runtime's per-epoch budget): when the cap is hit with work
        remaining, the call returns
        :data:`~repro.runtime.sharding.quiescence.RUNNING` and a later drive
        continues from the same state.  Raises :class:`NonTerminationError`
        on exhausted session-wide budgets.

        Under supervision, a worker death anywhere in a round triggers
        rollback recovery (see :meth:`_recover_from`) and the loop resumes;
        with ``checkpoint_rounds`` set on the coordinator, a fresh cut is
        captured every N rounds so the rollback never rewinds far.
        """
        coordinator = self.coordinator
        round_limit = None if max_new_rounds is None else self.rounds + max_new_rounds
        while True:
            if round_limit is not None and self.rounds >= round_limit:
                return RUNNING
            if (
                self.recovery is not None
                and coordinator.checkpoint_rounds is not None
                and self._rounds_since_checkpoint >= coordinator.checkpoint_rounds
            ):
                self.checkpoint()
            try:
                verdict = self._drive_round()
            except WorkerDied as failure:
                self._recover_from(failure)
                continue
            if verdict is not None:
                return verdict

    def _drive_round(self) -> Optional[str]:
        """One barrier round; returns a non-``RUNNING`` verdict or ``None``."""
        coordinator = self.coordinator
        detector = self.detector
        backend = self.backend
        if self.rounds >= coordinator.max_rounds:
            raise NonTerminationError(
                f"sharded run exceeded {coordinator.max_rounds} rounds "
                f"on {coordinator.program.name!r}"
            )
        remaining = coordinator.max_supersteps - self.supersteps
        if remaining <= 0:
            raise NonTerminationError(
                f"sharded run exceeded {coordinator.max_supersteps} supersteps "
                f"on {coordinator.program.name!r}"
            )
        round_cap = (
            remaining
            if coordinator.round_supersteps is None
            else min(coordinator.round_supersteps, remaining)
        )
        reports = backend.superstep_all(
            max_supersteps=round_cap, budget=coordinator.superstep_budget
        )
        self.messages += coordinator.num_shards
        self.rounds += 1
        self._rounds_since_checkpoint += 1
        fired = 0
        for report in reports:
            fired += report.fired
            self.per_shard_firings[report.shard] += report.fired
            self.supersteps += report.supersteps
            detector.record_local(report.shard, report.stable)
        self.firings += fired

        # Stealing and elasticity move elements after the reports, which
        # would leave the reported histograms stale: they keep the
        # return-and-re-step round.
        mutating = coordinator.work_stealing or coordinator.elasticity is not None
        if fired and (mutating or not detector.all_locally_stable()):
            if coordinator.work_stealing:
                moved, batches = coordinator._rebalance(backend, reports, detector)
                self.migrations += moved
                self.messages += batches
                self.steals += batches
            if coordinator.elasticity is not None:
                self._elastic_step(reports)
            return None

        # Every shard is locally stable: plan the exchange from the
        # histograms that rode the step replies.
        histograms = [report.labels for report in reports]
        plan = coordinator.routing.migration_plan(histograms)
        verdict = detector.verdict(plan_empty=not plan)
        if verdict != RUNNING:
            # The quiescence-round histograms are the current global
            # distribution — nothing mutates until the next injection.
            self._final_sizes = [sum(c.values()) for c in histograms]
            return verdict
        moved, batches = backend.execute_transfers(plan, detector)
        if not moved:
            raise RuntimeError(
                "exchange plan moved nothing while matches may remain "
                "(sharding protocol invariant violated)"
            )
        self.migrations += moved
        self.messages += batches
        self.exchanges += 1
        return None

    # -- elasticity ---------------------------------------------------------------
    def _elastic_step(self, reports) -> None:
        """Consult the elasticity policy at this barrier and apply its plan.

        Cheap path first: the per-shard sizes already travel with the local
        reports, so :meth:`ElasticityPolicy.pressure` costs no messages.
        Only under sustained pressure does the session fetch label
        histograms and ask for a plan — a resize (:meth:`_resize`) or a set
        of group re-homings executed through the ordinary exchange
        machinery (the quiescence detector accounts the moves like any
        other migration, so stability bookkeeping stays sound).
        """
        coordinator = self.coordinator
        policy = coordinator.elasticity
        sizes = [0] * coordinator.num_shards
        for report in reports:
            sizes[report.shard] = report.size
        if not policy.pressure(sizes):
            return
        histograms = self._guarded(self.backend.label_counts)
        self.messages += coordinator.num_shards
        plan = policy.plan(self.rounds, sizes, histograms, coordinator.routing)
        if plan is None:
            return
        if plan.new_shards is not None:
            self._resize(plan.new_shards)
            return
        transfers: List[Transfer] = []
        for root, destination in plan.moves:
            coordinator.routing.assign(root, destination)
            members = coordinator.routing.groups[root]
            for source, counts in enumerate(histograms):
                if source == destination:
                    continue
                labels = tuple(
                    sorted(label for label in members if counts.get(label, 0) > 0)
                )
                if labels:
                    transfers.append(
                        Transfer(source=source, destination=destination, labels=labels)
                    )
        if transfers:
            moved, batches = self._guarded(
                self.backend.execute_transfers, transfers, self.detector
            )
            self.migrations += moved
            self.messages += batches
        self.group_migrations += len(plan.moves)

    def _resize(self, new_shards: int) -> None:
        """Scale the shard set to ``new_shards`` as a planned, loss-free rebuild.

        Reuses the recovery wire format end to end: snapshot every shard as
        column batches at this barrier (a consistent cut — no firing or
        migration is in flight), repartition the union over the new count,
        and hand the backend the new partitions (the multiprocessing backend
        spawns or retires worker processes; in-process rebuilds its worker
        list).  The routing table is re-homed, the quiescence detector is
        rebuilt at the new width (stream state preserved), and — with
        recovery attached — a fresh checkpoint is taken immediately so a
        later rollback never restores a stale topology.
        """
        coordinator = self.coordinator
        batches = self._guarded(self.backend.snapshot_shard_batches)
        self.messages += coordinator.num_shards
        pairs: List[Tuple[Element, int]] = []
        for batch in batches:
            pairs.extend(from_column_batch(batch))
        partitions = partition_pairs(pairs, new_shards)
        while True:
            try:
                self.backend.resize(new_shards, partitions)
                break
            except WorkerDied as failure:
                if self.recovery is None:  # pragma: no cover - unsupervised resize
                    raise
                # Bounded by the recovery budget; resize() respawns dead
                # workers first, so the retry is idempotent.
                self.recovery.note_failure(failure)
        self.messages += new_shards
        coordinator.num_shards = new_shards
        coordinator.routing.rehome(new_shards)
        stream_open = self.detector.stream_open
        self.detector = QuiescenceDetector(new_shards)
        if stream_open:
            self.detector.open_stream()
        folded = [0] * new_shards
        for shard, fired in enumerate(self.per_shard_firings):
            folded[shard % new_shards] += fired
        self.per_shard_firings = folded
        self.scale_events += 1
        if self.recovery is not None:
            if stream_open:
                # Streaming epochs are pump indexes: reusing the round-based
                # default here would jump the WAL truncation point past
                # records that may still need replay.
                epoch = max(self._last_checkpoint_epoch, self._last_injected_epoch)
                self.checkpoint(epoch=epoch)
            else:
                self.checkpoint()

    # -- results ------------------------------------------------------------------
    def result(self) -> ShardedRunResult:
        """Collect the final multiset and wrap the session's accounting."""
        final = self._guarded(self.backend.collect_final)
        self.messages += self.coordinator.num_shards
        return ShardedRunResult(
            final=final,
            steps=self.rounds,
            firings=self.firings,
            migrations=self.migrations,
            messages=self.messages,
            per_partition_firings=list(self.per_shard_firings),
            backend=self.coordinator.backend_name,
            rounds=self.rounds,
            supersteps=self.supersteps,
            exchanges=self.exchanges,
            steals=self.steals,
            final_shard_sizes=list(self._final_sizes),
            recoveries=self.recoveries,
            replayed=self.replayed,
            scale_events=self.scale_events,
            group_migrations=self.group_migrations,
            injected=self.injected,
            wire_bytes=getattr(self.backend, "wire_bytes", 0),
        )
