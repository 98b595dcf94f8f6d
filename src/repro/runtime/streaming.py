"""Streaming ingestion runtime: continuous element injection into a live run.

Every backend built so far executes in **batch** mode — the whole multiset
exists up front and the run ends at global stability.  The north-star
deployment is **online**: elements arrive while the system runs (sensor
readings entering an IoT solution, requests entering a serving tier), and
the run alternates between absorbing new input and re-stabilizing.  This
module adds that mode on top of every existing backend without forking any
of their scheduling machinery:

* :class:`IngestQueue` — the admission buffer between producers and the run.
  Bounded (``capacity`` copies) with real backpressure: :meth:`IngestQueue.offer`
  refuses over-capacity batches, :meth:`IngestQueue.put` blocks until the
  runtime drains an epoch.  Admission order is deterministic: FIFO, or a
  seeded epoch-batch permutation when the queue carries a seed — so a
  seeded streaming run is a pure function of (program, initial, offer
  sequence, seed).
* **Epoch semantics** — injected elements become visible only at superstep
  boundaries: each :meth:`StreamingGammaRuntime.pump` admits one epoch
  batch and then drains to stability (or a per-epoch superstep cap).  The
  scheduler sees injection as ordinary multiset change notifications
  (:meth:`~repro.gamma.scheduler.ReactionScheduler.inject`), so dirty-label
  wakeups re-arm exactly the parked reactions whose footprints the new
  elements touch.
* **Backends** — the single-process engines (``"sequential"``,
  ``"chaotic"``, ``"parallel"``) run one persistent scheduler drained
  epoch-by-epoch through :meth:`~repro.gamma.engine.GammaEngine.drain`; the
  sharded backends (``"inprocess"``, ``"multiprocessing"``, ``"network"``) hold a
  :class:`~repro.runtime.sharding.ShardSession` whose routed injection
  ships each epoch batch to the elements' stable-hash home shards, and
  whose extended :class:`~repro.runtime.sharding.QuiescenceDetector`
  distinguishes *idle* (stable but stream open) from *drained*.
* :meth:`StreamingGammaRuntime.snapshot` — a consistent read of the live
  multiset between epochs, and :class:`StreamRunResult` — per-epoch
  accounting (injected copies, firings, supersteps, latency to stability).

The differential contract (pinned by the conformance fuzz suite): after the
stream closes and drains, the final multiset equals a batch run over
``initial ∪ injected`` — on every backend, for confluent programs.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..api import RuntimeConfig

from ..gamma.engine import (
    ChaoticEngine,
    GammaEngine,
    NonTerminationError,
    ParallelEngine,
    SequentialEngine,
)
from ..gamma.program import GammaProgram
from ..gamma.scheduler import ReactionScheduler
from ..gamma.tracer import Trace
from ..multiset.element import Element
from ..multiset.multiset import Multiset
from .recovery import RecoveryManager
from .sharding import ShardCoordinator, ShardSession
from .sharding.quiescence import DRAINED, IDLE

__all__ = [
    "IngestQueue",
    "EpochReport",
    "StreamRunResult",
    "StreamingGammaRuntime",
    "STREAM_BACKENDS",
]

#: Backend names accepted by :class:`StreamingGammaRuntime`.
STREAM_BACKENDS = (
    "sequential", "chaotic", "parallel", "inprocess", "multiprocessing", "network",
)

_ENGINE_BACKENDS = ("sequential", "chaotic", "parallel")
_SHARDED_BACKENDS = ("inprocess", "multiprocessing", "network")


def _coerce(element: Any) -> Element:
    if isinstance(element, Element):
        return element
    if isinstance(element, tuple):
        return Element.from_tuple(element)
    return Element(value=element)


class IngestQueue:
    """Bounded admission queue between element producers and a live run.

    Parameters
    ----------
    capacity:
        Maximum element *copies* the queue may hold (``None`` = unbounded).
        :meth:`offer` returns ``False`` instead of exceeding it; :meth:`put`
        blocks — the backpressure signal producers see when injection
        outpaces stabilization.
    seed:
        Optional admission seed.  ``None`` admits strictly FIFO; with a
        seed, each epoch batch is deterministically permuted by a private
        RNG, modeling out-of-order arrival while keeping the whole run
        reproducible (same offers + same epoch boundaries + same seed ⇒
        same admission order).

    Thread safety: all operations take one internal lock, so producers may
    offer from other threads while the runtime drains epochs.
    """

    def __init__(self, capacity: Optional[int] = None, seed: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self.seed = seed
        self._rng = random.Random(seed) if seed is not None else None
        self._entries: deque = deque()
        self._pending = 0
        self._closed = False
        self._condition = threading.Condition()
        self._take_listeners: List[Any] = []

    # -- producer side ------------------------------------------------------------
    def offer(self, element: Any, count: int = 1) -> bool:
        """Non-blocking admission of ``count`` copies; ``False`` when full.

        ``element`` may be an :class:`Element`, a ``(value, label, tag)``
        tuple, or a bare value.  Raises ``ValueError`` on a closed queue —
        offering after :meth:`close` is a producer bug, not backpressure.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        element = _coerce(element)
        with self._condition:
            if self._closed:
                raise ValueError("cannot offer to a closed IngestQueue")
            if self.capacity is not None and self._pending + count > self.capacity:
                return False
            self._entries.append((element, count))
            self._pending += count
            self._condition.notify_all()
            return True

    def offer_all(self, elements: Iterable[Any]) -> int:
        """Offer every element (count 1 each); returns copies admitted.

        Stops at the first refusal, so a bounded queue admits a prefix.
        """
        admitted = 0
        for element in elements:
            if not self.offer(element):
                break
            admitted += 1
        return admitted

    def offer_batch(self, pairs: Sequence[Tuple[Any, int]]) -> bool:
        """Atomic all-or-nothing admission of ``(element, count)`` pairs.

        Either every pair is admitted (``True``) or none is (``False`` when
        the batch would exceed capacity) — the gateway's no-partial-batch
        guarantee rides on this.  Elements are coerced like :meth:`offer`;
        raises ``ValueError`` on a closed queue or a non-positive count.
        """
        coerced = [(_coerce(element), count) for element, count in pairs]
        if any(count <= 0 for _, count in coerced):
            raise ValueError("every count must be positive")
        copies = sum(count for _, count in coerced)
        with self._condition:
            if self._closed:
                raise ValueError("cannot offer to a closed IngestQueue")
            if self.capacity is not None and self._pending + copies > self.capacity:
                return False
            self._entries.extend(coerced)
            self._pending += copies
            self._condition.notify_all()
            return True

    def put(self, element: Any, count: int = 1, timeout: Optional[float] = None) -> None:
        """Blocking admission: wait for capacity, then enqueue.

        The backpressure path for threaded producers.  Raises ``TimeoutError``
        when ``timeout`` (seconds) elapses without room, and ``ValueError``
        if the queue is closed (before or while waiting).  A :meth:`close`
        from another thread wakes blocked puts *promptly* — the wait
        predicate includes the closed flag and ``close`` notifies under the
        condition, so a shutdown never has to ride out the timeout (pinned
        by ``tests/runtime/test_streaming.py``).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        element = _coerce(element)
        with self._condition:
            def admissible() -> bool:
                return self._closed or (
                    self.capacity is None or self._pending + count <= self.capacity
                )

            if not self._condition.wait_for(admissible, timeout=timeout):
                raise TimeoutError(
                    f"no capacity for {count} copies within {timeout}s"
                )
            if self._closed:
                raise ValueError("cannot put to a closed IngestQueue")
            self._entries.append((element, count))
            self._pending += count
            self._condition.notify_all()

    def close(self) -> None:
        """End the stream: no further offers; pending elements still drain."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def add_take_listener(self, listener: Any) -> None:
        """Register ``listener(copies)`` to run after each non-empty take.

        Called outside the queue lock with the copies the take removed —
        the hook the ingestion gateway uses to retire per-tenant accounting
        as the runtime drains epochs.  Listeners must not raise.
        """
        self._take_listeners.append(listener)

    # -- runtime side -------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called (pending entries may remain)."""
        return self._closed

    @property
    def pending(self) -> int:
        """Element copies currently queued (admitted, not yet taken)."""
        with self._condition:
            return self._pending

    @property
    def exhausted(self) -> bool:
        """True when the stream is closed *and* everything was taken."""
        with self._condition:
            return self._closed and not self._entries

    def take_epoch(self, limit: Optional[int] = None) -> List[Tuple[Element, int]]:
        """Remove and return the next epoch batch (up to ``limit`` copies).

        The admission point: entries leave in FIFO order (an entry is never
        split below ``limit``; at least one entry is taken if any is
        pending), then — when the queue carries a seed — the batch is
        permuted by the private RNG.  Taking releases capacity, waking
        blocked :meth:`put` producers.
        """
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive (or None)")
        with self._condition:
            batch: List[Tuple[Element, int]] = []
            taken = 0
            while self._entries:
                element, count = self._entries[0]
                if limit is not None and batch and taken + count > limit:
                    break
                self._entries.popleft()
                batch.append((element, count))
                taken += count
                if limit is not None and taken >= limit:
                    break
            self._pending -= taken
            if taken:
                self._condition.notify_all()
        if taken:
            for listener in self._take_listeners:
                listener(taken)
        if self._rng is not None and len(batch) > 1:
            self._rng.shuffle(batch)
        return batch

    def wait_for_input(self, timeout: Optional[float] = None) -> bool:
        """Block until an entry is pending or the queue closes.

        Returns ``True`` when there is something to take (or the stream
        ended), ``False`` on timeout — the runtime's idle wait between
        epochs in live (non-scripted) mode.
        """
        with self._condition:
            return self._condition.wait_for(
                lambda: self._entries or self._closed, timeout=timeout
            )


@dataclass(frozen=True)
class EpochReport:
    """Accounting for one streaming epoch (one admission + one drain).

    ``latency`` is the wall-clock seconds from admitting the epoch batch to
    reaching stability again — the streaming analogue of a batch run's wall
    time.  ``stable`` is ``False`` when the drain stopped on the per-epoch
    superstep cap with work remaining (the next epoch continues it).
    """

    epoch: int
    injected: int
    firings: int
    steps: int
    latency: float
    stable: bool


@dataclass
class StreamRunResult:
    """Outcome of a streaming execution.

    ``steps`` counts engine steps/supersteps (engine backends) or barrier
    rounds (sharded backends) summed over all epochs; ``injected`` counts
    element copies admitted from the stream (the initial multiset is not
    counted).  ``per_epoch`` holds one :class:`EpochReport` per pump.
    """

    final: Multiset
    backend: str
    epochs: int
    injected: int
    firings: int
    steps: int
    per_epoch: List[EpochReport] = field(default_factory=list)
    stable: bool = True
    recoveries: int = 0
    replayed: int = 0
    scale_events: int = 0
    group_migrations: int = 0
    wire_bytes: int = 0

    def values_with_label(self, label: str) -> List:
        """Values of the final multiset's elements carrying ``label``."""
        return self.final.values_with_label(label)

    def epoch_firings(self) -> List[int]:
        """Firings per epoch (the stream's throughput profile)."""
        return [report.firings for report in self.per_epoch]

    def latency_to_stability(self) -> List[float]:
        """Seconds from each epoch's admission to renewed stability."""
        return [report.latency for report in self.per_epoch]


class StreamingGammaRuntime:
    """Run a Gamma program as a long-lived process fed by an element stream.

    Parameters
    ----------
    program:
        The Gamma program to execute.
    backend:
        One of :data:`STREAM_BACKENDS`: ``"sequential"`` / ``"chaotic"`` /
        ``"parallel"`` drive a single-process engine over one persistent
        scheduler; ``"inprocess"`` / ``"multiprocessing"`` / ``"network"``
        drive a sharded :class:`~repro.runtime.sharding.ShardSession` with
        routed injection.
    seed:
        Scheduling seed (forwarded to the engine or the shard workers) and,
        unless a pre-built ``queue`` is supplied, the admission seed.
    num_shards:
        Shard count for the sharded backends (default 4; ignored otherwise).
    queue:
        A pre-built :class:`IngestQueue` (e.g. shared with producer
        threads); by default the runtime creates one from
        ``queue_capacity``/``seed``.
    queue_capacity:
        Capacity of the auto-created queue (copies; ``None`` = unbounded).
    epoch_limit:
        Cap on copies admitted per epoch (``None`` = take everything
        pending), bounding how much work one epoch may absorb.
    steps_per_epoch:
        Superstep cap per epoch drain (``None`` = run to stability every
        epoch).  With a cap, an unstable epoch simply continues next pump —
        this is how injection interleaves with long stabilizations.
    max_steps:
        Total step/round budget across the whole stream (divergence guard).
    max_batch:
        Forwarded to :class:`~repro.gamma.engine.ParallelEngine`
        (``backend="parallel"`` only).
    compiled:
        Compiled scheduling stack (default) or the interpreted baseline.
    columnar:
        Mirror the live multiset into a columnar store and use the
        vectorized sweeps where eligible (engine backends only; requires
        ``compiled``).  Unseeded sequential streams drain each epoch through
        the columnar kernel; unseeded parallel streams collect supersteps
        through the columnar mask sweeps.  Seeded runs keep the mirror but
        stay on the object path (selection must consume the RNG).
    recovery:
        Optional :class:`~repro.runtime.recovery.RecoveryManager` (sharded
        backends only).  Every admitted epoch batch is written to the
        manager's WAL *before* any shard sees it, epoch checkpoints are
        captured every ``checkpoint_interval`` pumps, and a worker death
        rolls back to the last checkpoint and replays the logged epochs
        instead of failing the stream.
    checkpoint_interval:
        Pumps between checkpoints when ``recovery`` is set (default 1 —
        checkpoint every epoch; raise it to trade recovery rewind distance
        for lower checkpoint overhead).
    config.elasticity:
        Optional :class:`~repro.runtime.elasticity.ElasticityPolicy`
        (sharded backends only, config surface only): the coordinator
        consults it at superstep barriers and may migrate label groups
        between shards or split/merge the shard set while the stream is
        live — ``result().scale_events`` / ``.group_migrations`` report
        what it did.

    Drive it either *scripted* — ``run(initial, schedule=[batch, ...])``
    plays one batch per epoch — or *live*: start producer threads against
    ``runtime.queue``, call :meth:`run`, and :meth:`close_stream` (or
    ``queue.close()``) when the stream ends.  Between :meth:`pump` calls
    the run is at a superstep boundary, so :meth:`snapshot` is consistent.
    """

    def __init__(
        self,
        program: GammaProgram,
        backend: Optional[str] = None,
        seed: Optional[int] = None,
        num_shards: Optional[int] = None,
        queue: Optional[IngestQueue] = None,
        queue_capacity: Optional[int] = None,
        epoch_limit: Optional[int] = None,
        steps_per_epoch: Optional[int] = None,
        max_steps: Optional[int] = None,
        max_batch: Optional[int] = None,
        compiled: Optional[bool] = None,
        columnar: Optional[bool] = None,
        recovery: Optional[RecoveryManager] = None,
        checkpoint_interval: Optional[int] = None,
        config: Optional["RuntimeConfig"] = None,
    ) -> None:
        """Configure the stream; ``config`` is the preferred surface.

        A :class:`repro.api.RuntimeConfig` (validated against the
        ``"streaming"`` surface) carries ``backend`` / ``shards`` / ``seed``
        / ``max_steps`` / ``compiled`` / ``columnar`` / ``recovery`` /
        ``checkpoint_interval`` / ``elasticity``.  The equivalent legacy
        keywords still work but emit a ``DeprecationWarning`` and cannot be
        combined with ``config``.  Stream-plumbing arguments (``queue``,
        ``queue_capacity``, ``epoch_limit``, ``steps_per_epoch``,
        ``max_batch``) are not configuration — they stay
        keywords on either path.
        """
        from ..api import RuntimeConfig, _legacy_names, _reject_config_mix, _warn_legacy

        if columnar is False:
            columnar = None
        legacy = _legacy_names(
            (
                ("backend", backend),
                ("seed", seed),
                ("num_shards", num_shards),
                ("max_steps", max_steps),
                ("compiled", compiled),
                ("columnar", columnar),
                ("recovery", recovery),
                ("checkpoint_interval", checkpoint_interval),
            )
        )
        if config is not None:
            _reject_config_mix(legacy)
            cfg = config
        else:
            cfg = RuntimeConfig(
                backend=backend,
                shards=num_shards,
                seed=seed,
                max_steps=max_steps,
                compiled=compiled,
                columnar=columnar,
                recovery=recovery,
                checkpoint_interval=checkpoint_interval,
            )
        cfg.validate("streaming")
        if steps_per_epoch is not None and steps_per_epoch <= 0:
            raise ValueError("steps_per_epoch must be positive (or None)")
        if config is None and legacy:
            _warn_legacy("StreamingGammaRuntime", legacy)
        self.program = program
        self.backend = cfg.backend if cfg.backend is not None else "sequential"
        self.seed = cfg.seed
        self.num_shards = cfg.shards if cfg.shards is not None else 4
        if queue_capacity is None:
            queue_capacity = cfg.gateway_capacity
        self.queue = queue if queue is not None else IngestQueue(
            capacity=queue_capacity, seed=cfg.seed
        )
        self.gateway_tenant_quota = cfg.gateway_tenant_quota
        self._gateway: Optional[Any] = None
        self.epoch_limit = epoch_limit
        self.steps_per_epoch = steps_per_epoch
        self.max_steps = 1_000_000 if cfg.max_steps is None else cfg.max_steps
        self.max_batch = max_batch
        self.compiled = True if cfg.compiled is None else cfg.compiled
        self.columnar = bool(cfg.columnar)
        self.recovery = cfg.recovery
        self.checkpoint_interval = (
            1 if cfg.checkpoint_interval is None else cfg.checkpoint_interval
        )
        self.elasticity = cfg.elasticity
        self._epochs_since_checkpoint = 0
        # Live-run state (created by start()).
        self._engine: Optional[GammaEngine] = None
        self._scheduler: Optional[ReactionScheduler] = None
        self._multiset: Optional[Multiset] = None
        self._trace: Optional[Trace] = None
        self._session: Optional[ShardSession] = None
        self._reports: List[EpochReport] = []
        self._final: Optional[Multiset] = None
        self._steps = 0
        self._firings = 0
        self._injected = 0
        self._stable = False
        self._started = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------
    def start(self, initial: Optional[Multiset] = None) -> "StreamingGammaRuntime":
        """Load the initial multiset and arm the backend; returns ``self``.

        ``initial`` defaults to the program's bundled initial multiset (an
        empty multiset if the program bundles none — a pure stream).
        """
        if self._started:
            raise RuntimeError("streaming runtime already started")
        source = initial if initial is not None else self.program.initial
        if source is None:
            source = Multiset()
        if self.backend in _ENGINE_BACKENDS:
            self._multiset = source.copy()
            self._engine = self._make_engine()
            self._trace = Trace()
            self._scheduler = ReactionScheduler(
                self.program.reactions,
                self._multiset,
                rng=self._engine._rng,
                compiled=self.compiled,
                columnar=self.columnar,
            )
        else:
            coordinator = ShardCoordinator(
                self.program,
                self.num_shards,
                backend=self.backend,
                seed=self.seed,
                max_rounds=self.max_steps,
                compiled=self.compiled,
                recovery=self.recovery,
                elasticity=self.elasticity,
            )
            self._session = coordinator.start(source)
            self._session.open_stream()
        self._started = True
        return self

    def _make_engine(self) -> GammaEngine:
        if self.backend == "sequential":
            return SequentialEngine(compiled=self.compiled, columnar=self.columnar)
        if self.backend == "chaotic":
            return ChaoticEngine(
                seed=self.seed, compiled=self.compiled, columnar=self.columnar
            )
        return ParallelEngine(
            seed=self.seed,
            max_batch=self.max_batch,
            compiled=self.compiled,
            columnar=self.columnar,
        )

    def close(self) -> None:
        """Tear down schedulers/workers (idempotent; :meth:`result` stays readable)."""
        if self._closed:
            return
        self._closed = True
        if self._gateway is not None:
            self._gateway.close()
        if self._scheduler is not None:
            self._scheduler.detach()
        if self._session is not None:
            try:
                # Capture the final state before the workers go away, so
                # result() keeps working after close() on every backend.
                # session.snapshot() is recovery-guarded: with a manager
                # attached, even a worker dying right here is rolled back
                # and the snapshot retried.
                self._final = self._session.snapshot()
            except (OSError, RuntimeError, ValueError):
                # Teardown after a worker failure: the backend already shut
                # its queues; keep result() raising instead of deadlocking.
                self._final = None
            self._session.close()

    # -- producer conveniences ----------------------------------------------------
    def serve_gateway(self, host: str = "127.0.0.1") -> Any:
        """Start (or return) the socket ingestion gateway over this queue.

        Binds an :class:`~repro.runtime.net.gateway.IngestGateway` on an
        ephemeral ``host`` port (loopback by default) in front of
        ``self.queue``, with the config's ``gateway_tenant_quota`` as the
        per-tenant admission cap (the queue's own capacity — settable via
        ``gateway_capacity`` — is the global bound).  Idempotent: one
        gateway per runtime; :meth:`close` stops it.  Producers connect with
        :class:`~repro.runtime.net.gateway.GatewayClient` (or any codec-
        speaking client) and are backpressured, never dropped.
        """
        if self._closed:
            raise RuntimeError("streaming runtime is closed")
        if self._gateway is None:
            from .net.gateway import IngestGateway

            self._gateway = IngestGateway(
                self.queue, tenant_quota=self.gateway_tenant_quota, host=host
            )
        return self._gateway

    def inject(self, element: Any, count: int = 1) -> bool:
        """Offer ``count`` copies to the stream (non-blocking); see :meth:`IngestQueue.offer`."""
        return self.queue.offer(element, count)

    def close_stream(self) -> None:
        """Close the ingest queue: pending elements drain, then the run ends."""
        self.queue.close()

    # -- epoch execution ----------------------------------------------------------
    def pump(self) -> EpochReport:
        """Admit one epoch batch and drain to stability (or the epoch cap).

        The unit of streaming execution: everything the queue admitted
        becomes visible at this superstep boundary, then the backend fires
        until stable again.  Returns the epoch's :class:`EpochReport`.
        Raises :class:`NonTerminationError` when the total step budget is
        exhausted.
        """
        if not self._started:
            self.start()
        if self._closed:
            raise RuntimeError("streaming runtime is closed")
        batch = self.queue.take_epoch(limit=self.epoch_limit)
        injected = sum(count for _, count in batch)
        began = time.perf_counter()
        budget = self.max_steps - self._steps
        if budget <= 0:
            raise NonTerminationError(
                f"streaming run exceeded {self.max_steps} steps "
                f"on {self.program.name!r}"
            )
        if self.steps_per_epoch is not None:
            budget = min(budget, self.steps_per_epoch)
        if self._session is not None:
            if batch:
                self._session.inject(batch, epoch=len(self._reports))
            if self.queue.exhausted:
                self._session.close_stream()
            verdict = self._session.drive(
                max_new_rounds=None if self.steps_per_epoch is None else budget
            )
            steps = self._session.rounds - self._steps
            firings = self._session.firings - self._firings
            stable = verdict in (IDLE, DRAINED)
            self._steps = self._session.rounds
            self._firings = self._session.firings
            if self.recovery is not None:
                # The barrier between drive calls is a consistent cut even
                # when the verdict is RUNNING (per-epoch cap hit): no firing
                # or migration is in progress between rounds.
                self._epochs_since_checkpoint += 1
                if self._epochs_since_checkpoint >= self.checkpoint_interval:
                    self._session.checkpoint(epoch=len(self._reports))
                    self._epochs_since_checkpoint = 0
        else:
            assert self._engine is not None and self._scheduler is not None
            assert self._multiset is not None and self._trace is not None
            if batch:
                self._scheduler.inject(batch)
            steps, firings, stable = self._engine.drain(
                self._scheduler,
                self._multiset,
                self._trace,
                max_steps=budget,
                raise_on_budget=False,
                label=self.program.name,
            )
            self._steps += steps
            self._firings += firings
            if not stable and self.steps_per_epoch is None:
                # The cap that stopped the drain was the *global* budget.
                raise NonTerminationError(
                    f"streaming run exceeded {self.max_steps} steps "
                    f"on {self.program.name!r}"
                )
        self._injected += injected
        self._stable = stable
        report = EpochReport(
            epoch=len(self._reports),
            injected=injected,
            firings=firings,
            steps=steps,
            latency=time.perf_counter() - began,
            stable=stable,
        )
        self._reports.append(report)
        return report

    def snapshot(self) -> Multiset:
        """Consistent copy of the live multiset (valid between pumps).

        A *live* read: raises ``RuntimeError`` once the runtime is closed —
        use :meth:`result` for the final state after teardown.
        """
        if not self._started:
            raise RuntimeError("streaming runtime not started")
        if self._closed:
            raise RuntimeError("streaming runtime is closed; read result() instead")
        if self._session is not None:
            return self._session.snapshot()
        assert self._multiset is not None
        return self._multiset.copy()

    @property
    def drained(self) -> bool:
        """True when the stream is exhausted and the run is stable."""
        return self.queue.exhausted and self._stable and self.queue.pending == 0

    # -- whole-stream convenience --------------------------------------------------
    def run(
        self,
        initial: Optional[Multiset] = None,
        schedule: Optional[Iterable[Sequence[Any]]] = None,
        wait_timeout: Optional[float] = None,
    ) -> StreamRunResult:
        """Drive the stream to the drained state and return the result.

        Scripted mode (``schedule`` given): each entry is one epoch's
        injection batch — elements (or ``(element, count)`` pairs) offered
        then pumped — after which the stream closes and a final drain runs.
        Live mode (``schedule=None``): pump whenever the queue has input,
        block on :meth:`IngestQueue.wait_for_input` otherwise, and finish
        when some producer closes the stream.  ``wait_timeout`` bounds each
        idle wait (``None`` = wait indefinitely; raises ``TimeoutError`` on
        expiry so a misbehaving producer cannot hang the run forever).
        """
        if not self._started:
            self.start(initial)
        try:
            if schedule is not None:
                self.pump()  # epoch 0: stabilize the initial multiset alone
                for batch in schedule:
                    for entry in batch:
                        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(
                            entry[1], int
                        ) and isinstance(entry[0], Element):
                            self.queue.offer(entry[0], entry[1])
                        else:
                            self.queue.offer(entry)
                    self.pump()
                if not self.queue.closed:
                    self.queue.close()
                while not self.drained:
                    self.pump()
            else:
                while True:
                    if not self.queue.wait_for_input(timeout=wait_timeout):
                        raise TimeoutError(
                            f"no stream input within {wait_timeout}s and the "
                            f"queue is still open"
                        )
                    self.pump()
                    if self.drained:
                        break
            return self.result()
        finally:
            self.close()

    def result(self) -> StreamRunResult:
        """The stream's accumulated result (valid any time after start).

        Keeps working after :meth:`close` — the final multiset is captured
        at teardown — except when close followed a worker failure, in which
        case no consistent final state exists and ``RuntimeError`` is
        raised.
        """
        if self._session is not None:
            if self._closed:
                if self._final is None:
                    raise RuntimeError(
                        "no final state available: the backend failed before close"
                    )
                final = self._final.copy()
            else:
                final = self._session.snapshot()
        elif self._multiset is not None:
            final = self._multiset.copy()
        else:
            raise RuntimeError("streaming runtime not started")
        return StreamRunResult(
            final=final,
            backend=self.backend,
            epochs=len(self._reports),
            injected=self._injected,
            firings=self._firings,
            steps=self._steps,
            per_epoch=list(self._reports),
            stable=self._stable and self.queue.exhausted,
            recoveries=self._session.recoveries if self._session is not None else 0,
            replayed=self._session.replayed if self._session is not None else 0,
            scale_events=self._session.scale_events if self._session is not None else 0,
            group_migrations=(
                self._session.group_migrations if self._session is not None else 0
            ),
            wire_bytes=(
                (
                    getattr(self._session.backend, "wire_bytes", 0)
                    if self._session is not None
                    else 0
                )
                + (self._gateway.wire_bytes if self._gateway is not None else 0)
            ),
        )
