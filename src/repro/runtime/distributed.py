"""Distributed multiset runtime (the paper's IoT motivation).

The paper motivates the equivalence with the possibility of executing dataflow
programs "in a distributed multiset environment", e.g. an Internet-of-Things
deployment where the multiset is spread over many small devices.  This module
is the runtime's front door; it offers three backends through
:class:`DistributedGammaRuntime`:

* ``backend="legacy"`` (default) — the original step-synchronous *simulation*:
  hash-partitioned workers fire at most ``firings_per_worker_step`` local
  matches per global step, starving workers migrate one element at a time
  from random peers, and termination is detected by rebuilding the union
  multiset and probing it.  Kept as the cost-model baseline of experiment
  E9(d) and of ``BENCH_sharded_runtime``.
* ``backend="inprocess"`` / ``backend="multiprocessing"`` — the real sharded
  execution subsystem (:mod:`repro.runtime.sharding`): every shard runs its
  own compiled :class:`~repro.gamma.scheduler.ReactionScheduler`, fires
  maximal local supersteps through the codegenned collectors and batched
  rewrites, and participates in a superstep-barrier protocol with
  footprint-routed batched migrations, work stealing, and two-phase global
  quiescence detection.  The multiprocessing backend runs shard workers as
  OS processes exchanging pickled element batches over queues.

Each legacy worker holds a persistent
:class:`~repro.gamma.scheduler.ReactionScheduler` over its partition, so
local matching runs on an incrementally maintained index — migrations and
firings flow through the multiset change notifications and re-arm exactly the
reactions whose consumed labels were touched, instead of rebuilding a matcher
per worker per step.

The result reports firings, steps, migrations and messages, so the partition
sweep of experiment E9(d) can show the locality/communication trade-off.

All of the above execute in batch mode; for **online** execution — elements
injected while the run is live, routed to their home shards at superstep
boundaries — wrap any backend in
:class:`repro.runtime.streaming.StreamingGammaRuntime`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..api import RuntimeConfig

from ..gamma.engine import NonTerminationError
from ..gamma.matching import Matcher, fire_batch
from ..gamma.program import GammaProgram
from ..gamma.scheduler import ReactionScheduler
from ..multiset.element import Element
from ..multiset.multiset import Multiset
from ..multiset.partition import home_of

__all__ = ["DistributedMultiset", "DistributedRunResult", "DistributedGammaRuntime"]

#: Sentinel distinguishing "caller never passed firings_per_worker_step"
#: (sharded backends then default to maximal local batches) from an explicit
#: cap, including an explicit 1.
_UNSET_FIRINGS = object()


class DistributedMultiset:
    """A multiset hash-partitioned over a fixed number of workers."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.partitions: List[Multiset] = [Multiset() for _ in range(num_partitions)]

    # -- placement -----------------------------------------------------------------
    def home_of(self, element: Element) -> int:
        """The partition an element is routed to by default (hash placement).

        Placement uses :meth:`Element.stable_hash`, a digest of the canonical
        ``(value, label, tag)`` triple, **not** the builtin ``hash()``: the
        builtin salts strings per process (``PYTHONHASHSEED``), and a
        distributed deployment must route an element to the same home from
        every node and every restart.  The placement function is shared with
        the sharded runtime (:func:`repro.multiset.partition.home_of`), so
        both runtimes agree on every element's home.
        """
        return home_of(element, self.num_partitions)

    def add(self, element: Element, partition: Optional[int] = None) -> int:
        """Add ``element`` (to its home partition unless ``partition`` is given)."""
        index = self.home_of(element) if partition is None else partition
        self.partitions[index].add(element)
        return index

    def add_all(self, elements: Sequence[Element]) -> None:
        for element in elements:
            self.add(element)

    def remove(self, element: Element, partition: int) -> None:
        self.partitions[partition].remove(element)

    def migrate(self, element: Element, source: int, destination: int) -> None:
        """Move one copy of ``element`` between partitions."""
        self.partitions[source].remove(element)
        self.partitions[destination].add(element)

    # -- views ----------------------------------------------------------------------
    def union(self) -> Multiset:
        """The global multiset (union of all partitions)."""
        total = Multiset()
        for partition in self.partitions:
            total = total + partition
        return total

    def sizes(self) -> List[int]:
        return [len(p) for p in self.partitions]

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)


@dataclass
class DistributedRunResult:
    """Outcome of a distributed execution."""

    final: Multiset
    steps: int
    firings: int
    migrations: int
    messages: int
    per_partition_firings: List[int] = field(default_factory=list)

    def values_with_label(self, label: str) -> List:
        return self.final.values_with_label(label)

    @property
    def communication_ratio(self) -> float:
        """Messages per firing — the locality indicator reported by E9(d).

        Division semantics for the zero-firing edge cases: a run that fired
        nothing but still exchanged messages (e.g. an already-stable initial
        multiset, whose termination detection costs one message round) has
        *infinitely bad* locality and reports ``float("inf")`` — the earlier
        behavior reported ``0.0``, which read as perfect locality.  A run
        with neither firings nor messages reports ``0.0``.
        """
        if self.firings:
            return self.messages / self.firings
        return float("inf") if self.messages else 0.0


class DistributedGammaRuntime:
    """Execution of a Gamma program over a partitioned multiset.

    ``backend`` selects how the partitions execute: ``"legacy"`` (default)
    keeps the original step-synchronous simulation; ``"inprocess"`` and
    ``"multiprocessing"`` run the sharded subsystem
    (:class:`repro.runtime.sharding.ShardCoordinator`) over the same
    partitioning, returning a
    :class:`~repro.runtime.sharding.ShardedRunResult` (a
    :class:`DistributedRunResult` subclass, so callers read one interface).
    """

    #: Backend names accepted by :class:`DistributedGammaRuntime`.
    BACKENDS = ("legacy", "inprocess", "multiprocessing", "network")

    def __init__(
        self,
        program: GammaProgram,
        num_partitions: Optional[int] = None,
        seed: Optional[int] = None,
        max_steps: Optional[int] = None,
        firings_per_worker_step=_UNSET_FIRINGS,
        compiled: Optional[bool] = None,
        local_batches: bool = False,
        backend: Optional[str] = None,
        config: Optional["RuntimeConfig"] = None,
    ) -> None:
        """Configure a distributed run.

        The preferred configuration surface is ``config``, a
        :class:`repro.api.RuntimeConfig` validated against the
        ``"distributed"`` surface; the partition count may come positionally
        (``num_partitions``) or as ``config.shards`` (they must agree when
        both are given).  ``config`` is also the *only* way to enable the
        fault-tolerance and elasticity layers here (``config.recovery``,
        ``config.checkpoint_interval``, ``config.elasticity`` — sharded
        backends only).  The ``seed`` / ``max_steps`` / ``compiled`` /
        ``backend`` keywords are the legacy surface: still honored, but they
        emit a ``DeprecationWarning`` and cannot be combined with ``config``.

        ``local_batches=True`` switches every legacy worker to superstep
        firing: per global step a worker extracts a maximal disjoint set of
        *local* matches (capped at ``firings_per_worker_step``; pass ``None``
        for uncapped) and applies it through one batched rewrite, instead of
        the default one-at-a-time firing loop.  Starvation/migration and
        termination detection are unchanged.

        For the sharded backends, ``firings_per_worker_step`` becomes the
        per-superstep firing budget.  Left unset it defaults to ``None`` —
        maximal local batches — while the legacy default stays 1; an
        *explicit* value (including an explicit 1) is honored by every
        backend.  ``max_steps`` bounds the barrier rounds, and ``seed``
        drives the shards' derived scheduler seeds.
        """
        from ..api import RuntimeConfig, _legacy_names, _reject_config_mix, _warn_legacy

        legacy = _legacy_names(
            (
                ("seed", seed),
                ("max_steps", max_steps),
                ("compiled", compiled),
                ("backend", backend),
            )
        )
        if config is not None:
            _reject_config_mix(legacy)
            cfg = config
        else:
            cfg = RuntimeConfig(
                backend=backend,
                shards=num_partitions,
                seed=seed,
                max_steps=max_steps,
                compiled=compiled,
            )
        cfg.validate("distributed")
        if config is not None and num_partitions is not None:
            if cfg.shards is not None and cfg.shards != num_partitions:
                raise ValueError(
                    f"num_partitions={num_partitions} conflicts with "
                    f"config.shards={cfg.shards}"
                )
        shards = num_partitions if num_partitions is not None else cfg.shards
        if shards is None:
            raise ValueError(
                "num_partitions is required (positionally or as config.shards)"
            )
        if shards <= 0:
            raise ValueError("shards must be positive")
        if config is None and legacy:
            _warn_legacy("DistributedGammaRuntime", legacy)

        resolved_backend = cfg.backend if cfg.backend is not None else "legacy"
        self._explicit_firings = firings_per_worker_step is not _UNSET_FIRINGS
        if not self._explicit_firings:
            firings_per_worker_step = 1
        if (
            resolved_backend == "legacy"
            and local_batches is False
            and firings_per_worker_step is None
        ):
            raise ValueError(
                "firings_per_worker_step=None (uncapped) requires local_batches=True"
            )
        self.program = program
        self.num_partitions = shards
        self.backend = resolved_backend
        self.seed = cfg.seed
        self.max_steps = 1_000_000 if cfg.max_steps is None else cfg.max_steps
        self.firings_per_worker_step = firings_per_worker_step
        self.compiled = True if cfg.compiled is None else cfg.compiled
        self.local_batches = local_batches
        # Config-only layers (no legacy keyword ever existed for these).
        self.recovery = cfg.recovery
        self.checkpoint_interval = cfg.checkpoint_interval
        self.elasticity = cfg.elasticity
        self._rng = random.Random(self.seed)

    def run(self, initial: Optional[Multiset] = None) -> DistributedRunResult:
        """Run the program over ``num_partitions`` partitions to stability.

        ``initial`` defaults to the program's bundled initial multiset.
        Raises :class:`~repro.gamma.engine.NonTerminationError` when the step
        budget is exhausted and ``ValueError`` when no initial multiset is
        available.
        """
        # Re-seeded per run, NOT once in __init__: one runtime object must
        # produce identical traces on consecutive run() calls with a fixed
        # seed (the first run used to advance a shared RNG, silently making
        # the second run diverge).
        self._rng = random.Random(self.seed)
        if self.backend != "legacy":
            return self._run_sharded(initial)
        source = initial if initial is not None else self.program.initial
        if source is None:
            raise ValueError("an initial multiset is required")

        distributed = DistributedMultiset(self.num_partitions)
        distributed.add_all(list(source))

        steps = 0
        firings = 0
        migrations = 0
        messages = 0
        per_partition_firings = [0] * self.num_partitions
        # One persistent scheduler per worker: migrations/firings keep the
        # local indexes fresh through the multiset change notifications.
        schedulers = [
            ReactionScheduler(
                self.program.reactions, partition, rng=self._rng, compiled=self.compiled
            )
            for partition in distributed.partitions
        ]

        try:
            while True:
                if steps >= self.max_steps:
                    raise NonTerminationError(
                        f"distributed run exceeded {self.max_steps} steps on {self.program.name!r}"
                    )
                fired_this_step = 0
                starving: List[int] = []

                for worker in range(self.num_partitions):
                    local = distributed.partitions[worker]
                    scheduler = schedulers[worker]
                    executed = 0
                    if self.local_batches:
                        # Superstep firing: one maximal disjoint local batch,
                        # applied through one batched rewrite.
                        scheduler.refresh()
                        matches = scheduler.collect_superstep_matches(
                            budget=self.firings_per_worker_step
                        )
                        if matches:
                            executed = fire_batch(
                                local, matches, validate=not self.compiled
                            )
                    else:
                        apply_rewrite = (
                            local.rewrite_unchecked if self.compiled else local.replace
                        )
                        while executed < self.firings_per_worker_step:
                            scheduler.refresh()
                            match = scheduler.find_first(shuffled=True)
                            if match is None:
                                break
                            produced = match.produced()
                            apply_rewrite(match.consumed, produced)
                            executed += 1
                    if executed == 0:
                        starving.append(worker)
                    fired_this_step += executed
                    per_partition_firings[worker] += executed

                firings += fired_this_step
                steps += 1

                if fired_this_step == 0:
                    # Global termination check: one message per worker.
                    messages += self.num_partitions
                    union = self._global_match_exists(distributed)
                    if not union:
                        break
                    # Not stable yet: rebalance by migrating elements toward worker 0
                    # until it can match (simple work-pulling strategy).
                    migrations += self._pull_elements(distributed, 0)
                    messages += 1
                elif starving:
                    # Starving workers pull one element each from a random peer.
                    for worker in starving:
                        moved = self._steal_one(distributed, worker)
                        migrations += moved
                        messages += moved
        finally:
            for scheduler in schedulers:
                scheduler.detach()

        return DistributedRunResult(
            final=distributed.union(),
            steps=steps,
            firings=firings,
            migrations=migrations,
            messages=messages,
            per_partition_firings=per_partition_firings,
        )

    # -- sharded backends ---------------------------------------------------------------

    def _run_sharded(self, initial: Optional[Multiset]) -> DistributedRunResult:
        """Delegate to the sharded subsystem (``backend != "legacy"``).

        The import is local to keep :mod:`repro.runtime.sharding` (which
        reuses :class:`DistributedRunResult`) free of import cycles.
        """
        from .sharding import ShardCoordinator

        # The legacy *default* (one firing per worker step) would disable
        # superstep batching entirely, so an unset cap widens to maximal
        # local batches; an explicit cap — including an explicit 1 — is
        # honored as given.
        budget = self.firings_per_worker_step if self._explicit_firings else None
        coordinator = ShardCoordinator(
            self.program,
            self.num_partitions,
            backend=self.backend,
            seed=self.seed,
            max_rounds=self.max_steps,
            superstep_budget=budget,
            compiled=self.compiled,
            recovery=self.recovery,
            checkpoint_rounds=self.checkpoint_interval,
            elasticity=self.elasticity,
        )
        return coordinator.run(initial)

    # -- helpers -----------------------------------------------------------------------

    def _global_match_exists(self, distributed: DistributedMultiset) -> bool:
        union = distributed.union()
        matcher = Matcher(union)
        return any(matcher.is_enabled(reaction) for reaction in self.program.reactions)

    def _steal_one(self, distributed: DistributedMultiset, worker: int) -> int:
        donors = [
            index
            for index in range(self.num_partitions)
            if index != worker and len(distributed.partitions[index]) > 0
        ]
        if not donors:
            return 0
        donor = self._rng.choice(donors)
        element = self._rng.choice(distributed.partitions[donor].distinct())
        distributed.migrate(element, donor, worker)
        return 1

    def _pull_elements(self, distributed: DistributedMultiset, destination: int) -> int:
        """Pull everything to ``destination`` so cross-partition matches can fire."""
        moved = 0
        for index in range(self.num_partitions):
            if index == destination:
                continue
            for element in list(distributed.partitions[index]):
                distributed.migrate(element, index, destination)
                moved += 1
        return moved
