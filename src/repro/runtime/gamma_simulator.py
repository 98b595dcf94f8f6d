"""Discrete-step multi-PE simulator for Gamma programs.

A step is one superstep of
:meth:`~repro.gamma.scheduler.ReactionScheduler.collect_superstep_matches` —
the same collector the :class:`~repro.gamma.engine.ParallelEngine` and the
shard workers fire — with the PE pool's capacity as the firing budget.  Each
PE performs at most one reaction firing per step, so a ``(tuple, k)``
decision occupies k PEs; that is the resource constraint the parallel Gamma
implementations cited by the paper (Connection Machine, MasPar, MPI, GPU)
provide.  ``num_pes=None`` is the unbounded pool: the parallelism *available*
in the execution.  Together with
:class:`~repro.runtime.df_simulator.DataflowSimulator` it gives both sides of
the experiment E9 comparison the same cost model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..api import RuntimeConfig

from ..gamma.engine import NonTerminationError
from ..gamma.matching import fire_batch
from ..gamma.program import GammaProgram
from ..gamma.scheduler import ReactionScheduler
from ..multiset.multiset import Multiset
from .metrics import ParallelRunMetrics
from .pe import PEPool

__all__ = ["GammaSimulationResult", "GammaSimulator", "simulate_program"]

DEFAULT_MAX_STEPS = 1_000_000


@dataclass
class GammaSimulationResult:
    """Outcome of one PE-bounded parallel Gamma execution."""

    final: Multiset
    metrics: ParallelRunMetrics
    steps: int
    total_firings: int

    def values_with_label(self, label: str) -> List:
        return self.final.values_with_label(label)


class GammaSimulator:
    """Step-synchronous, PE-bounded parallel execution of a Gamma program."""

    def __init__(
        self,
        program: GammaProgram,
        num_pes: Optional[int] = None,
        seed: Optional[int] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        compiled: bool = True,
        columnar: bool = False,
    ) -> None:
        self.program = program
        self.num_pes = num_pes
        self.max_steps = max_steps
        self.compiled = compiled
        self.columnar = columnar
        # As in the parallel engine: unseeded runs probe in declaration and
        # bucket order, a seed draws one permutation per bucket per step.
        self._rng = random.Random(seed) if seed is not None else None

    def run(self, initial: Optional[Multiset] = None) -> GammaSimulationResult:
        """Run to the stable state under the PE constraint."""
        multiset = initial if initial is not None else self.program.initial
        if multiset is None:
            raise ValueError("an initial multiset is required")
        multiset = multiset.copy()
        pool: PEPool = PEPool(self.num_pes)
        steps = 0
        total_firings = 0
        scheduler = ReactionScheduler(
            self.program.reactions,
            multiset,
            rng=self._rng,
            compiled=self.compiled,
            columnar=self.columnar,
        )
        try:
            while True:
                if steps >= self.max_steps:
                    raise NonTerminationError(
                        f"gamma simulation exceeded {self.max_steps} steps on {self.program.name!r}"
                    )
                scheduler.refresh()
                batch = scheduler.collect_superstep_matches(budget=pool.capacity())
                if not batch:
                    break
                # A (tuple, k) decision is k unit-latency firings on k PEs;
                # the budget already fits them to the pool's capacity.
                pool.dispatch([record for record in batch.records for _ in range(record[3])])
                total_firings += fire_batch(multiset, batch, validate=not self.compiled)
                steps += 1
        finally:
            scheduler.detach()

        metrics = ParallelRunMetrics.from_profile(pool.profile, num_pes=self.num_pes)
        return GammaSimulationResult(
            final=multiset, metrics=metrics, steps=steps, total_firings=total_firings
        )


def simulate_program(
    program: GammaProgram,
    initial: Optional[Multiset] = None,
    num_pes: Optional[int] = None,
    seed: Optional[int] = None,
    compiled: Optional[bool] = None,
    columnar: Optional[bool] = None,
    config: Optional["RuntimeConfig"] = None,
) -> GammaSimulationResult:
    """Convenience wrapper around :class:`GammaSimulator`.

    The preferred configuration surface is ``config``, a
    :class:`repro.api.RuntimeConfig` validated against the ``"simulator"``
    surface (``seed`` / ``max_steps`` / ``compiled`` / ``columnar``).  The
    equivalent legacy keywords still work but emit a ``DeprecationWarning``
    and cannot be combined with ``config``; ``num_pes`` is the simulator's
    resource model, not runtime configuration, so it stays a keyword on
    either path.
    """
    from ..api import RuntimeConfig, _legacy_names, _reject_config_mix, _warn_legacy

    if columnar is False:
        columnar = None
    legacy = _legacy_names(
        (("seed", seed), ("compiled", compiled), ("columnar", columnar))
    )
    if config is not None:
        _reject_config_mix(legacy)
        cfg = config
    else:
        cfg = RuntimeConfig(seed=seed, compiled=compiled, columnar=columnar)
    cfg.validate("simulator")
    if config is None and legacy:
        _warn_legacy("simulate_program()", legacy)
    return GammaSimulator(
        program,
        num_pes=num_pes,
        seed=cfg.seed,
        max_steps=DEFAULT_MAX_STEPS if cfg.max_steps is None else cfg.max_steps,
        compiled=True if cfg.compiled is None else cfg.compiled,
        columnar=bool(cfg.columnar),
    ).run(initial)
