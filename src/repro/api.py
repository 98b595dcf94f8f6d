"""Unified runtime configuration: one composable surface for every backend.

Seven PRs of growth left the execution modes configured through accreted
keyword arguments — ``run(engine=..., seed=..., compiled=..., parallel=...,
columnar=...)``, ``DistributedGammaRuntime(backend=..., seed=...)``,
``StreamingGammaRuntime(recovery=..., checkpoint_interval=...)`` — with the
conflict rules duplicated (and slightly diverging) across the three entry
points.  This module centralizes all of it:

* :class:`RuntimeConfig` — a frozen dataclass naming every execution knob
  once.  Build one config and hand it to any entry point::

      from repro.api import RuntimeConfig, run, StreamingGammaRuntime

      cfg = RuntimeConfig(backend="multiprocessing", shards=8, seed=7,
                          elasticity=ElasticityPolicy(seed=7))
      result = run(program, initial, config=cfg)          # batch
      stream = StreamingGammaRuntime(program, config=cfg) # online

* :meth:`RuntimeConfig.validate` — the single home of the conflict rules.
  Each entry point declares its *surface* (``"engine"``, ``"distributed"``,
  ``"streaming"``, ``"simulator"``); fields that do not apply to that
  surface are rejected, and the surface-specific rules (unknown
  engine/backend names, ``parallel`` vs ``engine`` conflicts, recovery and
  elasticity requiring a sharded backend, positivity checks) raise the same
  ``ValueError`` texts the legacy keyword paths raised — because the legacy
  paths now *delegate* here.

* The legacy keywords still work: each entry point builds a config from
  them, validates it, and emits a ``DeprecationWarning`` (message prefix
  ``"legacy keyword configuration"``, which CI escalates to an error for
  the repo's own tests so internal callers stay on the new surface).

The module also re-exports the entry points themselves, so ``repro.api`` is
a one-stop import for running programs any way the system supports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

__all__ = [
    "RuntimeConfig",
    "SURFACES",
    "run",
    "run_program",
    "simulate_program",
    "DistributedGammaRuntime",
    "StreamingGammaRuntime",
    "ShardCoordinator",
    "ElasticityPolicy",
    "RecoveryManager",
]

#: Entry-point surfaces a config can be validated against.
SURFACES = ("engine", "distributed", "streaming", "simulator")

#: Config fields meaningful per surface; everything else must stay unset.
_APPLICABLE = {
    "engine": frozenset(
        {"engine", "compiled", "parallel", "columnar", "seed", "max_steps",
         "raise_on_budget"}
    ),
    "distributed": frozenset(
        {"backend", "shards", "seed", "max_steps", "compiled", "recovery",
         "checkpoint_interval", "elasticity"}
    ),
    "streaming": frozenset(
        {"backend", "shards", "seed", "max_steps", "compiled", "columnar",
         "recovery", "checkpoint_interval", "elasticity", "gateway_capacity",
         "gateway_tenant_quota"}
    ),
    "simulator": frozenset({"seed", "max_steps", "compiled", "columnar"}),
}

_FIELDS = (
    "engine", "compiled", "parallel", "columnar", "backend", "shards",
    "recovery", "checkpoint_interval", "elasticity", "gateway_capacity",
    "gateway_tenant_quota", "seed", "max_steps", "raise_on_budget",
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Every execution knob of the system, named once.

    All fields default to ``None`` ("unset" — the entry point's default
    applies), so a config only states what it changes and composes cleanly
    across surfaces: the fields a surface ignores must simply stay unset
    (enforced by :meth:`validate`).

    Fields
    ------
    engine:
        Single-process engine name (``"sequential"``, ``"chaotic"``,
        ``"parallel"``).  Engine *instances* are not
        configuration — configure them directly and call their ``run``.
    compiled:
        Compiled reaction pipeline (default) or the interpreted baseline.
    parallel:
        ``True`` selects the parallel superstep engine.  ``False`` is
        normalized to unset.
    columnar:
        Vectorized columnar execution where supported.  ``False`` is
        normalized to unset.
    backend:
        Distributed/streaming backend name.  On the batch :func:`run`
        surface, setting this routes execution through
        :class:`DistributedGammaRuntime`.
    shards:
        Shard / partition count for the distributed and streaming surfaces
        (the *starting* count under elasticity).
    recovery:
        A :class:`~repro.runtime.recovery.RecoveryManager` (sharded
        backends only).
    checkpoint_interval:
        Checkpoint cadence: pumps between checkpoints when streaming,
        barrier rounds between checkpoints in batch mode.
    elasticity:
        An :class:`~repro.runtime.elasticity.ElasticityPolicy` (sharded
        backends only): online group migration and shard autoscaling.
    gateway_capacity:
        Streaming surface only: capacity (element copies) of the ingest
        queue behind :meth:`StreamingGammaRuntime.serve_gateway` — the
        global backpressure bound producers feel through the socket.
    gateway_tenant_quota:
        Streaming surface only: per-tenant cap on pending copies admitted
        through the gateway (must not exceed ``gateway_capacity`` when both
        are set).
    seed:
        Scheduling/admission seed; ``None`` is fully deterministic
        declaration-order scheduling.
    max_steps:
        Step / barrier-round budget (divergence guard).
    raise_on_budget:
        Whether an exhausted budget raises (engine surface only).
    """

    engine: Optional[str] = None
    compiled: Optional[bool] = None
    parallel: Optional[bool] = None
    columnar: Optional[bool] = None
    backend: Optional[str] = None
    shards: Optional[int] = None
    recovery: Optional[Any] = None
    checkpoint_interval: Optional[int] = None
    elasticity: Optional[Any] = None
    gateway_capacity: Optional[int] = None
    gateway_tenant_quota: Optional[int] = None
    seed: Optional[int] = None
    max_steps: Optional[int] = None
    raise_on_budget: Optional[bool] = None

    def __post_init__(self) -> None:
        # parallel=False / columnar=False mean "off", which is the unset
        # default — normalize so sweeps can forward uniform False values
        # (the same tolerance the legacy keywords always had).
        if self.parallel is False:
            object.__setattr__(self, "parallel", None)
        if self.columnar is False:
            object.__setattr__(self, "columnar", None)

    # -- derivation ---------------------------------------------------------------
    def merged(self, **overrides: Any) -> "RuntimeConfig":
        """A copy of this config with ``overrides`` applied (unset-safe)."""
        return replace(self, **overrides)

    # -- validation ---------------------------------------------------------------
    def validate(self, surface: str = "engine") -> "RuntimeConfig":
        """Check this config against one entry-point surface; returns ``self``.

        Raises ``ValueError`` on a field the surface does not understand or
        on any illegal combination — with the exact messages the legacy
        keyword paths raise, since those paths delegate here.  The batch
        ``"engine"`` surface with :attr:`backend` set validates as
        ``"distributed"`` (that is where :func:`run` routes it).
        """
        if surface not in SURFACES:
            raise ValueError(
                f"unknown config surface {surface!r}; expected one of {SURFACES}"
            )
        if surface == "engine" and self.backend is not None:
            surface = "distributed"
        applicable = _APPLICABLE[surface]
        for name in _FIELDS:
            value = getattr(self, name)
            if value is not None and name not in applicable:
                raise ValueError(
                    f"config field {name}={value!r} does not apply to the "
                    f"{surface} surface"
                )
        if self.shards is not None and self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.engine is not None and not isinstance(self.engine, str):
            raise ValueError(
                f"config.engine must be an engine name, got {self.engine!r}; "
                f"configure engine instances directly and call their run()"
            )
        if surface == "engine":
            self._validate_engine()
        elif surface == "distributed":
            self._validate_distributed()
        elif surface == "streaming":
            self._validate_streaming()
        return self

    def _validate_engine(self) -> None:
        """Engine-surface rules (mirrors the historic ``run()`` checks)."""
        from .gamma.engine import _ENGINES

        engine = self.engine
        if self.parallel is not None:
            if self.parallel is not True:
                raise ValueError(
                    f"parallel must be True, False or None, got {self.parallel!r}"
                )
            if engine not in (None, "sequential", "parallel"):
                raise ValueError(
                    f"parallel={self.parallel!r} selects the 'parallel' engine "
                    f"and cannot be combined with engine={engine!r}"
                )
            engine = "parallel"
        if engine is not None and engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {sorted(_ENGINES)}"
            )

    def _validate_distributed(self) -> None:
        """Distributed-surface rules (mirrors ``DistributedGammaRuntime``)."""
        from .runtime.sharding.coordinator import SHARD_BACKENDS

        if self.backend is not None and self.backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {SHARD_BACKENDS}"
            )
        if self.checkpoint_interval is not None and self.recovery is None:
            raise ValueError("checkpoint_interval requires a RecoveryManager")

    def _validate_streaming(self) -> None:
        """Streaming-surface rules (mirrors ``StreamingGammaRuntime``)."""
        from .runtime.streaming import _SHARDED_BACKENDS, STREAM_BACKENDS

        backend = self.backend if self.backend is not None else "sequential"
        if backend not in STREAM_BACKENDS:
            raise ValueError(
                f"unknown streaming backend {backend!r}; "
                f"expected one of {STREAM_BACKENDS}"
            )
        if self.recovery is not None and backend not in _SHARDED_BACKENDS:
            raise ValueError(
                f"recovery requires a sharded backend {_SHARDED_BACKENDS}, "
                f"got {backend!r} (engine backends hold all state in this "
                f"process; there is no worker to lose)"
            )
        if self.elasticity is not None and backend not in _SHARDED_BACKENDS:
            raise ValueError(
                f"elasticity requires a sharded backend {_SHARDED_BACKENDS}, "
                f"got {backend!r} (engine backends have no shards to rebalance)"
            )
        if self.gateway_capacity is not None and self.gateway_capacity <= 0:
            raise ValueError("gateway_capacity must be positive")
        if self.gateway_tenant_quota is not None:
            if self.gateway_tenant_quota <= 0:
                raise ValueError("gateway_tenant_quota must be positive")
            if (
                self.gateway_capacity is not None
                and self.gateway_tenant_quota > self.gateway_capacity
            ):
                raise ValueError(
                    f"gateway_tenant_quota={self.gateway_tenant_quota} exceeds "
                    f"gateway_capacity={self.gateway_capacity}"
                )


# -- legacy-shim helpers (used by every entry point) ------------------------------

def _legacy_names(pairs: Tuple[Tuple[str, Any], ...]) -> Tuple[str, ...]:
    """Names of the legacy keywords actually passed (value is not None)."""
    return tuple(name for name, value in pairs if value is not None)


def _reject_config_mix(names: Tuple[str, ...]) -> None:
    """Config and legacy keywords are mutually exclusive."""
    if names:
        raise ValueError(
            f"cannot combine config= with legacy keyword(s) {', '.join(names)}"
        )


def _warn_legacy(entry_point: str, names: Tuple[str, ...]) -> None:
    """Emit the deprecation for a legacy-keyword call (stable message prefix)."""
    warnings.warn(
        f"legacy keyword configuration of {entry_point} ({', '.join(names)}) "
        f"is deprecated; pass config=RuntimeConfig(...) instead",
        DeprecationWarning,
        stacklevel=3,
    )


# -- facade re-exports ------------------------------------------------------------
# Imported after RuntimeConfig is defined: the entry points import this module
# lazily (inside their functions), so these module-level imports cannot cycle.
from .gamma.engine import run, run_program  # noqa: E402
from .runtime.distributed import DistributedGammaRuntime  # noqa: E402
from .runtime.elasticity import ElasticityPolicy  # noqa: E402
from .runtime.gamma_simulator import simulate_program  # noqa: E402
from .runtime.recovery import RecoveryManager  # noqa: E402
from .runtime.sharding import ShardCoordinator  # noqa: E402
from .runtime.streaming import StreamingGammaRuntime  # noqa: E402
