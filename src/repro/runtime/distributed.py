"""Distributed multiset runtime (the paper's IoT motivation).

The paper motivates the equivalence with the possibility of executing dataflow
programs "in a distributed multiset environment", e.g. an Internet-of-Things
deployment where the multiset is spread over many small devices.  This module
is the runtime's front door: :class:`DistributedGammaRuntime` hands a program
to the sharded execution subsystem (:mod:`repro.runtime.sharding`) on one of
its backends — ``"inprocess"`` (default), ``"multiprocessing"`` or
``"network"``.  Every shard runs its own compiled
:class:`~repro.gamma.scheduler.ReactionScheduler`, fires maximal local
supersteps through the codegenned collectors and batched rewrites, and takes
part in a barrier protocol with footprint-routed batched migrations and
two-phase global quiescence detection.

The result reports firings, steps (barrier rounds), migrations and messages,
so the partition sweep of experiment E9(d) can show the locality/communication
trade-off.

For **online** execution — elements injected while the run is live, routed
to their home shards at superstep boundaries — use
:class:`repro.runtime.streaming.StreamingGammaRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..api import RuntimeConfig

from ..gamma.program import GammaProgram
from ..multiset.multiset import Multiset

__all__ = ["DistributedRunResult", "DistributedGammaRuntime"]


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
        """Values of the final multiset's elements carrying ``label``."""
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

    A configuration front end for
    :class:`repro.runtime.sharding.ShardCoordinator`: :meth:`run` returns its
    :class:`~repro.runtime.sharding.ShardedRunResult` (a
    :class:`DistributedRunResult` subclass, so callers read one interface).
    The backend defaults to ``"inprocess"``; the accepted names are
    :data:`~repro.runtime.sharding.coordinator.SHARD_BACKENDS`.
    """

    def __init__(
        self,
        program: GammaProgram,
        num_partitions: Optional[int] = None,
        seed: Optional[int] = None,
        max_steps: Optional[int] = None,
        firings_per_worker_step: Optional[int] = None,
        compiled: Optional[bool] = None,
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
        ``config.checkpoint_interval``, ``config.elasticity``).  The ``seed``
        / ``max_steps`` / ``compiled`` / ``backend`` keywords are the legacy
        surface: still honored, but they emit a ``DeprecationWarning`` and
        cannot be combined with ``config``.

        ``firings_per_worker_step`` caps the firings of each shard's local
        superstep (``None``, the default, extracts maximal batches; ``1`` is
        the one-firing-per-device cost model of experiment E9(d)); it must
        be positive.  Setting it also makes the rounds lock-step (one local
        superstep per barrier round), because that model counts rounds as
        steps; unset, every shard runs to its local fixpoint per round.
        ``max_steps`` bounds the barrier rounds, and ``seed`` drives the
        shards' derived scheduler seeds.
        """
        from ..api import RuntimeConfig, _legacy_names, _reject_config_mix, _warn_legacy

        # Imported here: the sharding package reuses DistributedRunResult,
        # so a module-level import would cycle.
        from .sharding import ShardCoordinator

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

        self.coordinator = ShardCoordinator(
            program,
            shards,
            backend=cfg.backend if cfg.backend is not None else "inprocess",
            seed=cfg.seed,
            max_rounds=1_000_000 if cfg.max_steps is None else cfg.max_steps,
            superstep_budget=firings_per_worker_step,
            # A per-step firing budget is the E9(d) cost model, which counts
            # barrier rounds as steps: keep its rounds lock-step.
            round_supersteps=None if firings_per_worker_step is None else 1,
            compiled=True if cfg.compiled is None else cfg.compiled,
            recovery=cfg.recovery,
            checkpoint_rounds=cfg.checkpoint_interval,
            elasticity=cfg.elasticity,
        )

    def run(self, initial: Optional[Multiset] = None) -> DistributedRunResult:
        """Run the program over ``num_partitions`` shards to quiescence.

        ``initial`` defaults to the program's bundled initial multiset.
        Raises :class:`~repro.gamma.engine.NonTerminationError` when the
        round budget is exhausted and ``ValueError`` when no initial multiset
        is available.
        """
        return self.coordinator.run(initial)
