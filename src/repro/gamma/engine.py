"""Execution engines implementing the Γ operator (Eq. 1 of the paper).

All engines implement the same contract: starting from an initial multiset,
repeatedly apply enabled reactions until *no reaction condition is
satisfiable* (the paper's "global termination state"), then return the stable
multiset plus an execution trace.  They differ only in **how** enabled
reactions are scheduled, which is exactly the degree of freedom the Gamma
model leaves open:

* :class:`SequentialEngine` — deterministic: scans reactions in declaration
  order and applies the first enabled match, one firing per step.  Mirrors the
  single-processor implementation of Muylaert/Gay cited in the paper [13].
* :class:`ChaoticEngine` — nondeterministic: draws a random enabled
  (reaction, match) pair each step from a seeded RNG.  This is the closest to
  the abstract chemical-machine metaphor and is what the equivalence tests
  sample over many seeds.
* :class:`ParallelEngine` — maximal parallel: at each superstep collects a
  maximal set of *non-conflicting* ``(tuple, k)`` matches (no element
  occurrence consumed twice) across all reactions and fires them
  simultaneously through one validation-free batched rewrite, like the
  Connection Machine / GPU implementations cited in the paper.  Its per-step
  width is the Gamma-side parallelism profile of experiment E9.

Scheduler architecture
----------------------

All engines share one run loop (:meth:`GammaEngine._run_block`) built on
the incremental :class:`~repro.gamma.scheduler.ReactionScheduler`:

1. a :class:`~repro.multiset.index.LabelTagIndex` is *attached* to the run's
   multiset once and maintained through the multiset's change notifications —
   no per-step index rebuild;
2. the scheduler precomputes each reaction's consumed-label footprint and
   parks reactions proven dead; after a firing, only reactions whose footprint
   intersects the labels touched by the rewrite are re-probed;
3. subclasses provide only the *match selection policy*
   (:meth:`GammaEngine._select_matches`): first-in-declaration-order or
   first-in-shuffled-order; :class:`ParallelEngine` swaps in a superstep
   drain over :meth:`~repro.gamma.scheduler.ReactionScheduler.collect_superstep_matches`.

Reactions are additionally *compiled* before the run starts
(:mod:`repro.gamma.compiled`): slot-based codegenned matchers, compiled
guards/productions, and the validation-free ``rewrite_unchecked`` firing
path.  ``compiled=False`` selects the interpreted matcher/guard baseline
(bit-identical traces on every identity-plan reaction set, which includes
all paper workloads — seeded runs too: the interpreted superstep collector
draws one permutation per bucket per superstep, like the compiled one).

Every engine enforces a ``max_steps`` budget.  By default a diverging program
(or a conversion bug) raises :class:`NonTerminationError` instead of hanging;
with ``raise_on_budget=False`` the engine instead returns the partial
:class:`ExecutionResult` with ``stable=False``, which is also how bounded
"run for k steps" experiments are expressed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..api import RuntimeConfig

from ..multiset.multiset import Multiset
from .matching import Match, fire_batch
from .program import GammaProgram, ProgramLike, SequentialProgram
from .scheduler import ReactionScheduler
from .tracer import Trace
from .vectorized import ColumnarKernel

__all__ = [
    "ExecutionResult",
    "NonTerminationError",
    "GammaEngine",
    "SequentialEngine",
    "ChaoticEngine",
    "ParallelEngine",
    "run",
    "run_program",
]

DEFAULT_MAX_STEPS = 1_000_000


class NonTerminationError(RuntimeError):
    """Raised when an execution exceeds its step budget without stabilizing."""


@dataclass
class ExecutionResult:
    """Outcome of running a Gamma program.

    ``stable`` is ``True`` when the run reached the paper's global termination
    state (no reaction condition satisfiable) and ``False`` when the engine
    stopped early because ``max_steps`` was exhausted under
    ``raise_on_budget=False`` — ``final`` then holds the partial multiset.
    """

    final: Multiset
    trace: Trace
    steps: int
    firings: int
    engine: str
    stable: bool = True

    def values_with_label(self, label: str) -> List:
        """Values of the stable multiset's elements carrying ``label``."""
        return self.final.values_with_label(label)

    def outputs(self, labels: Sequence[str]) -> Multiset:
        """The stable multiset restricted to ``labels`` (the observable result)."""
        return self.final.restrict_labels(labels)

    def parallelism_profile(self) -> List[int]:
        """Firings per step over the trace (the run's parallelism width)."""
        return self.trace.parallelism_profile()


class GammaEngine:
    """Base class providing the shared scheduler-driven run loop.

    Subclasses set a ``name``, optionally seed ``self._rng``, and implement
    :meth:`_select_matches` — the scheduling policy applied once per step.
    """

    name = "abstract"

    def __init__(
        self,
        max_steps: int = DEFAULT_MAX_STEPS,
        raise_on_budget: bool = True,
        compiled: bool = True,
        columnar: bool = False,
    ) -> None:
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        self.max_steps = max_steps
        self.raise_on_budget = raise_on_budget
        self.compiled = compiled
        # Columnar mode (see repro.gamma.vectorized): results and traces are
        # identical with and without it — engines opt into vectorized probe
        # paths where their scheduling policy permits and silently stay on
        # the object path otherwise, so the flag is accepted uniformly.
        self.columnar = columnar
        self._rng: Optional[random.Random] = None
        #: Optional per-phase wall-time collector (duck-typed: an object with
        #: ``add(phase, seconds)``), installed by the benchmark harness's
        #: ``--profile`` mode; ``None`` costs nothing on the hot loops.
        self.profiler = None

    # -- public API --------------------------------------------------------------
    def run(
        self,
        program: ProgramLike,
        initial: Optional[Multiset] = None,
    ) -> ExecutionResult:
        """Run ``program`` starting from ``initial`` (or its bundled multiset)."""
        if isinstance(program, SequentialProgram):
            return self._run_sequential_composition(program, initial)
        if not isinstance(program, GammaProgram):
            raise TypeError(f"cannot run {type(program).__name__}")
        multiset = self._initial_multiset(program, initial)
        trace = Trace()
        steps, firings, stable = self._run_block(program, multiset, trace)
        return ExecutionResult(
            final=multiset,
            trace=trace,
            steps=steps,
            firings=firings,
            engine=self.name,
            stable=stable,
        )

    def _run_sequential_composition(
        self, program: SequentialProgram, initial: Optional[Multiset]
    ) -> ExecutionResult:
        current = initial
        trace = Trace()
        total_steps = 0
        total_firings = 0
        stable = True
        multiset: Optional[Multiset] = None
        for stage in program.stages:
            if not isinstance(stage, GammaProgram):
                raise TypeError("sequential stages must be GammaProgram blocks")
            multiset = self._initial_multiset(stage, current)
            steps, firings, stable = self._run_block(stage, multiset, trace)
            total_steps += steps
            total_firings += firings
            current = multiset
            if not stable:
                # Budget exhausted mid-stage: later stages never run; report
                # the partial state instead of silently continuing.
                break
        assert multiset is not None
        return ExecutionResult(
            final=multiset,
            trace=trace,
            steps=total_steps,
            firings=total_firings,
            engine=self.name,
            stable=stable,
        )

    @staticmethod
    def _initial_multiset(program: GammaProgram, initial: Optional[Multiset]) -> Multiset:
        if initial is not None:
            return initial.copy()
        if program.initial is not None:
            return program.initial.copy()
        raise ValueError(
            f"program {program.name!r} has no bundled initial multiset; pass one explicitly"
        )

    # -- shared run loop ------------------------------------------------------------
    def _run_block(
        self, program: GammaProgram, multiset: Multiset, trace: Trace
    ) -> Tuple[int, int, bool]:
        """Run one parallel block in place; return (steps, firings, stable)."""
        scheduler = ReactionScheduler(
            program.reactions,
            multiset,
            rng=self._rng,
            compiled=self.compiled,
            columnar=self.columnar,
        )
        try:
            return self.drain(
                scheduler,
                multiset,
                trace,
                max_steps=self.max_steps,
                raise_on_budget=self.raise_on_budget,
                label=program.name,
            )
        finally:
            scheduler.detach()

    def drain(
        self,
        scheduler: ReactionScheduler,
        multiset: Multiset,
        trace: Trace,
        max_steps: int,
        raise_on_budget: bool = True,
        label: str = "<stream>",
    ) -> Tuple[int, int, bool]:
        """Fire under this engine's policy until stable or ``max_steps`` runs out.

        The resumable inner loop shared by :meth:`_run_block` (which creates
        a scheduler per block and drains once) and by
        :class:`~repro.runtime.streaming.StreamingGammaRuntime` (which holds
        one *persistent* scheduler across the whole stream and drains once
        per epoch — injected elements dirty their labels, so the next drain
        re-wakes exactly the affected parked reactions).  Returns
        ``(steps, firings, stable)``; with ``raise_on_budget=False`` an
        exhausted budget returns ``stable=False`` instead of raising.
        """
        # Matches handed out by the scheduler are availability-verified, so
        # the compiled path skips replace()'s redundant atomic pre-validation.
        apply_rewrite = multiset.rewrite_unchecked if self.compiled else multiset.replace
        begin_step = trace.begin_step
        record = trace.record
        steps = 0
        firings = 0
        while True:
            if steps >= max_steps:
                if raise_on_budget:
                    raise NonTerminationError(
                        f"{self.name} engine exceeded {max_steps} steps "
                        f"on {label!r}"
                    )
                return steps, firings, False
            scheduler.refresh()
            matches = self._select_matches(scheduler)
            if not matches:
                return steps, firings, True
            step = begin_step()
            for match in matches:
                produced = match.produced()
                apply_rewrite(match.consumed, produced)
                record(step, match.reaction.name, match.consumed, produced, match.binding)
                firings += 1
            steps += 1

    # -- to be provided by subclasses ----------------------------------------------
    def _select_matches(self, scheduler: ReactionScheduler) -> List[Match]:
        """The matches to fire this step (empty list = stable state reached)."""
        raise NotImplementedError


class SequentialEngine(GammaEngine):
    """Deterministic one-firing-per-step engine (reaction declaration order)."""

    name = "sequential"

    def drain(
        self,
        scheduler: ReactionScheduler,
        multiset: Multiset,
        trace: Trace,
        max_steps: int,
        raise_on_budget: bool = True,
        label: str = "<stream>",
    ) -> Tuple[int, int, bool]:
        """Sequential drain, vectorized when ``columnar=True`` permits.

        With a columnar scheduler whose whole program lowers to mask
        programs (:meth:`ColumnarKernel.build`), the first-match/fire loop
        runs entirely against the columnar store — same firings, same trace
        records — and the object loop only takes over for whatever the
        kernel hands back (a bail on a divisor hazard or a bucket demotion,
        never a semantic difference).  Otherwise this is exactly the base
        drain.
        """
        if not (self.columnar and self.compiled):
            return super().drain(
                scheduler, multiset, trace, max_steps, raise_on_budget, label
            )
        kernel = ColumnarKernel.build(scheduler)
        if kernel is None:
            return super().drain(
                scheduler, multiset, trace, max_steps, raise_on_budget, label
            )
        steps, firings, outcome = kernel.drain(trace, max_steps, self.profiler)
        if outcome == "stable":
            return steps, firings, True
        if outcome == "budget":
            if raise_on_budget:
                raise NonTerminationError(
                    f"{self.name} engine exceeded {max_steps} steps on {label!r}"
                )
            return steps, firings, False
        # Bail: the object path finishes the drain under the remaining
        # budget; the budget error is raised here so its message names the
        # caller's full budget, not the remainder.
        more_steps, more_firings, stable = super().drain(
            scheduler,
            multiset,
            trace,
            max_steps - steps,
            raise_on_budget=False,
            label=label,
        )
        steps += more_steps
        firings += more_firings
        if not stable and raise_on_budget:
            raise NonTerminationError(
                f"{self.name} engine exceeded {max_steps} steps on {label!r}"
            )
        return steps, firings, stable

    def _select_matches(self, scheduler: ReactionScheduler) -> List[Match]:
        match = scheduler.find_first()
        return [match] if match is not None else []


class ChaoticEngine(GammaEngine):
    """Nondeterministic engine: random enabled (reaction, match) pair per step."""

    name = "chaotic"

    def __init__(
        self,
        seed: Optional[int] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        raise_on_budget: bool = True,
        compiled: bool = True,
        columnar: bool = False,
    ) -> None:
        super().__init__(
            max_steps=max_steps,
            raise_on_budget=raise_on_budget,
            compiled=compiled,
            columnar=columnar,
        )
        self.seed = seed
        self._rng = random.Random(seed)

    def _select_matches(self, scheduler: ReactionScheduler) -> List[Match]:
        match = scheduler.find_first(shuffled=True)
        return [match] if match is not None else []


class ParallelEngine(GammaEngine):
    """Maximal-parallel supersteps: fire a whole disjoint match set per step.

    Each superstep:

    1. extracts a maximal disjoint set of ``(tuple, k)`` matches through
       :meth:`ReactionScheduler.collect_superstep_matches` (one bucket pass
       per reaction instead of one probe restart per firing, and one match
       per distinct tuple instead of one per copy: ``match.times`` says how
       often it fires);
    2. evaluates each match's productions once (they are pure functions of
       the binding);
    3. applies the whole batch through the validation-free
       :meth:`Multiset.rewrite_batch_unchecked` (two-phase, counted, batched
       change notifications), records every match — with its ``times`` —
       under one trace step, and only then lets the scheduler observe the
       dirty labels.

    Scheduling is deterministic: unseeded, reactions and candidates are probed
    in declaration/bucket order; with a ``seed``, probe order is drawn from a
    private RNG stream, so one seed always selects one schedule.  That is what
    lets the differential tests pin this engine against the sequential ones.

    ``max_batch`` caps the firings per superstep — the same budget the
    PE-bounded :class:`~repro.runtime.gamma_simulator.GammaSimulator` passes
    as its pool capacity.
    """

    name = "parallel"

    def __init__(
        self,
        seed: Optional[int] = None,
        max_batch: Optional[int] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        raise_on_budget: bool = True,
        compiled: bool = True,
        columnar: bool = False,
    ) -> None:
        super().__init__(
            max_steps=max_steps,
            raise_on_budget=raise_on_budget,
            compiled=compiled,
            columnar=columnar,
        )
        if max_batch is not None and max_batch <= 0:
            raise ValueError("max_batch must be positive (or None for unbounded)")
        self.seed = seed
        self.max_batch = max_batch
        # Unseeded runs stay on the deterministic probe order.  A seed costs
        # one shuffle per bucket snapshot per superstep on top of the same
        # scan (the collectors materialize that snapshot either way), so it
        # buys schedule diversity, not a different complexity class.
        self._rng = random.Random(seed) if seed is not None else None

    def drain(
        self,
        scheduler: ReactionScheduler,
        multiset: Multiset,
        trace: Trace,
        max_steps: int,
        raise_on_budget: bool = True,
        label: str = "<stream>",
    ) -> Tuple[int, int, bool]:
        """Superstep counterpart of :meth:`GammaEngine.drain` (same contract)."""
        steps = 0
        firings = 0
        while True:
            if steps >= max_steps:
                if raise_on_budget:
                    raise NonTerminationError(
                        f"{self.name} engine exceeded {max_steps} supersteps "
                        f"on {label!r}"
                    )
                return steps, firings, False
            scheduler.refresh()
            matches = scheduler.collect_superstep_matches(budget=self.max_batch)
            if not matches:
                return steps, firings, True
            produced_lists = [match.produced() for match in matches]
            step = trace.begin_step()
            for match, produced in zip(matches, produced_lists):
                trace.record(
                    step,
                    match.reaction.name,
                    match.consumed,
                    produced,
                    match.binding,
                    times=match.times,
                )
            firings += fire_batch(
                multiset, matches, produced_lists, validate=not self.compiled
            )
            steps += 1

    def _select_matches(self, scheduler: ReactionScheduler) -> List[Match]:
        # The batched drain() above replaces the base loop entirely.
        raise NotImplementedError("ParallelEngine uses its own superstep loop")


_ENGINES = {
    "sequential": SequentialEngine,
    "chaotic": ChaoticEngine,
    "parallel": ParallelEngine,
}


def run(
    program: ProgramLike,
    initial: Optional[Multiset] = None,
    engine: Union[str, GammaEngine] = "sequential",
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    raise_on_budget: Optional[bool] = None,
    compiled: Optional[bool] = None,
    parallel: Optional[bool] = None,
    columnar: Optional[bool] = None,
    config: Optional["RuntimeConfig"] = None,
):
    """Run a Gamma program — the unified batch entry point.

    The preferred configuration surface is ``config``, a
    :class:`repro.api.RuntimeConfig`::

        run(program, initial, config=RuntimeConfig(engine="chaotic", seed=7))
        run(program, initial, config=RuntimeConfig(backend="inprocess", shards=4))

    With ``config.backend`` set the call routes through
    :class:`~repro.runtime.distributed.DistributedGammaRuntime` (returning its
    :class:`~repro.runtime.distributed.DistributedRunResult`); otherwise one of
    the single-process engines runs and an
    :class:`~repro.gamma.trace.ExecutionResult` is returned.  All conflict
    rules live in :meth:`RuntimeConfig.validate`.

    ``engine`` may also be an engine *instance*; instances carry their own
    configuration, so combining one with any other keyword (or ``config``)
    raises ``ValueError``.

    The remaining keywords are the legacy configuration surface.  They still
    work — each call builds the equivalent ``RuntimeConfig`` internally — but
    emit a ``DeprecationWarning`` (message prefix ``"legacy keyword
    configuration"``).  They cannot be combined with ``config``.  As before,
    ``seed`` is tolerated (and unused) for ``engine="sequential"`` so one
    seed can be forwarded while sweeping all engine names, and
    ``parallel=False`` / ``columnar=False`` are normalized to "unset" so
    sweeps can forward uniform flag values.
    """
    from ..api import RuntimeConfig, _legacy_names, _reject_config_mix, _warn_legacy

    if parallel is False:
        # "No parallel backend" is the default: an explicit False must behave
        # like None everywhere (including the engine-instance conflict check),
        # so sweeps can forward a uniform parallel=False.
        parallel = None
    if columnar is False:
        # Same tolerance for columnar: mode sweeps forward columnar=False.
        columnar = None
    if isinstance(engine, GammaEngine):
        conflicting = [
            name
            for name, value in (
                ("seed", seed),
                ("max_steps", max_steps),
                ("raise_on_budget", raise_on_budget),
                ("compiled", compiled),
                ("parallel", parallel),
                ("columnar", columnar),
                ("config", config),
            )
            if value is not None
        ]
        if conflicting:
            raise ValueError(
                f"cannot combine an engine instance with {', '.join(conflicting)}; "
                f"configure the engine directly instead"
            )
        return engine.run(program, initial)

    # The default engine="sequential" string is indistinguishable from an
    # explicit one, so only a non-default name counts as a legacy keyword.
    legacy = _legacy_names(
        (
            ("engine", engine if engine != "sequential" else None),
            ("seed", seed),
            ("max_steps", max_steps),
            ("raise_on_budget", raise_on_budget),
            ("compiled", compiled),
            ("parallel", parallel),
            ("columnar", columnar),
        )
    )
    if config is not None:
        _reject_config_mix(legacy)
        cfg = config
    else:
        cfg = RuntimeConfig(
            engine=engine if engine != "sequential" else None,
            seed=seed,
            max_steps=max_steps,
            raise_on_budget=raise_on_budget,
            compiled=compiled,
            parallel=parallel,
            columnar=columnar,
        )
    cfg.validate("engine")
    if config is None and legacy:
        _warn_legacy("run()", legacy)

    if cfg.backend is not None:
        from ..runtime.distributed import DistributedGammaRuntime

        return DistributedGammaRuntime(program, config=cfg).run(initial)

    engine_name = "parallel" if cfg.parallel is not None else (cfg.engine or "sequential")
    cls = _ENGINES[engine_name]
    kwargs = {
        "max_steps": DEFAULT_MAX_STEPS if cfg.max_steps is None else cfg.max_steps,
        "raise_on_budget": True if cfg.raise_on_budget is None else cfg.raise_on_budget,
        "compiled": True if cfg.compiled is None else cfg.compiled,
        "columnar": False if cfg.columnar is None else cfg.columnar,
    }
    if cls is not SequentialEngine:
        kwargs["seed"] = cfg.seed
    return cls(**kwargs).run(program, initial)


# Backwards-friendly alias used throughout examples.
run_program = run
