"""Unit tests for the columnar vectorized execution path."""

import pytest

from repro.gamma import (
    ColumnarKernel,
    NonTerminationError,
    SequentialEngine,
    compile_reaction,
    run,
)
from repro.gamma import vectorized as vectorized_module
from repro.gamma.expr import BinOp, Compare, Const, var
from repro.gamma.pattern import ElementTemplate, pattern, template
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.scheduler import ReactionScheduler
from repro.gamma.stdlib import (
    gcd_program,
    min_element,
    product_reduction,
    values_multiset,
)
from repro.multiset import columnar as columnar_module
from repro.workloads import make_workload
from repro.api import RuntimeConfig

PAPER_WORKLOADS = (
    "min_element",
    "max_element",
    "sum_reduction",
    "gcd",
    "prime_sieve",
    "exchange_sort",
    "remove_duplicates",
)


def _fingerprint(result):
    return [
        [
            (f.step, f.reaction, f.consumed, f.produced, f.binding, f.times)
            for f in step.firings
        ]
        for step in result.trace.steps
    ]


def _differential(program, initial, engine="sequential", **kwargs):
    plain = run(program, initial.copy(), config=RuntimeConfig(engine=engine, **kwargs))
    columnar = run(
        program,
        initial.copy(),
        config=RuntimeConfig(engine=engine, columnar=True, **kwargs),
    )
    assert _fingerprint(columnar) == _fingerprint(plain)
    assert columnar.final.counts() == plain.final.counts()
    assert columnar.steps == plain.steps
    assert columnar.firings == plain.firings
    return plain, columnar


def _binary(name, guard=None, productions=None):
    return Reaction(
        name=name,
        replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2")],
        branches=[
            Branch(
                productions=productions
                or [template("a", "x", Const(0))]
            )
        ],
        guard=guard,
    )


class TestEligibility:
    def test_paper_workloads_all_lower(self):
        for name in PAPER_WORKLOADS:
            workload = make_workload(name, size=8, seed=0)
            for reaction in workload.program.reactions:
                vec = compile_reaction(reaction).vectorized()
                assert vec is not None, (name, reaction.name)
                assert vec.source  # the mask program is published for inspection

    def test_division_guard_is_not_lowerable(self):
        guarded = _binary(
            "Rdiv", guard=Compare("<", BinOp("/", var("a"), var("b")), Const(2))
        )
        assert compile_reaction(guarded).vectorized() is None

    def test_modulo_guard_lowers_with_hazard(self):
        guarded = _binary(
            "Rmod", guard=Compare("==", BinOp("%", var("a"), var("b")), Const(0))
        )
        vec = compile_reaction(guarded).vectorized()
        assert vec is not None
        assert vec.hazard_terms  # the zero-divisor precheck is armed

    def test_arity_three_is_not_lowerable(self):
        reaction = Reaction(
            name="R3",
            replace=[
                pattern("a", "x", "t1"),
                pattern("b", "x", "t2"),
                pattern("c", "x", "t3"),
            ],
            branches=[Branch(productions=[template("a", "x", Const(0))])],
        )
        assert compile_reaction(reaction).vectorized() is None

    def test_vectorized_result_is_cached(self):
        compiled = compile_reaction(min_element().reactions[0])
        assert compiled.vectorized() is compiled.vectorized()


class TestKernelBuild:
    def _scheduler(self, program, initial, **kwargs):
        return ReactionScheduler(
            program.reactions, initial, compiled=True, columnar=True, **kwargs
        )

    def test_builds_for_eligible_program(self):
        multiset = values_multiset([5, 3, 8])
        scheduler = self._scheduler(min_element(), multiset)
        try:
            assert ColumnarKernel.build(scheduler) is not None
        finally:
            scheduler.detach()

    def test_seeded_scheduler_is_rejected(self):
        import random

        multiset = values_multiset([5, 3, 8])
        scheduler = self._scheduler(min_element(), multiset, rng=random.Random(1))
        try:
            assert ColumnarKernel.build(scheduler) is None
        finally:
            scheduler.detach()

    def test_non_columnar_scheduler_is_rejected(self):
        multiset = values_multiset([5, 3, 8])
        scheduler = ReactionScheduler(
            min_element().reactions, multiset, compiled=True
        )
        try:
            assert scheduler.columnar_store is None
            assert ColumnarKernel.build(scheduler) is None
        finally:
            scheduler.detach()

    def test_non_vectorizable_bucket_is_rejected(self):
        multiset = values_multiset([5, 3, "s"])
        scheduler = self._scheduler(min_element(), multiset)
        try:
            assert ColumnarKernel.build(scheduler) is None
        finally:
            scheduler.detach()


class TestDifferentialTraces:
    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    @pytest.mark.parametrize("engine", ["sequential", "parallel"])
    def test_paper_workloads_bit_identical(self, name, engine):
        workload = make_workload(name, size=40, seed=3)
        _differential(workload.program, workload.initial, engine=engine)

    def test_small_sweep_chunks_cover_the_chunk_loop(self, monkeypatch):
        monkeypatch.setattr(vectorized_module, "SWEEP_CHUNK", 3)
        workload = make_workload("min_element", size=30, seed=1)
        _differential(workload.program, workload.initial)

    def test_pure_python_fallback_is_identical(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_np", None)
        workload = make_workload("exchange_sort", size=20, seed=2)
        _differential(workload.program, workload.initial)

    def test_hazard_bearing_guard_is_identical(self):
        # gcd's subtraction guard and prime_sieve's modulo both carry hazard
        # terms; differential over a crafted clustered input.
        _differential(gcd_program(), values_multiset([12, 18, 30, 42, 12]))


class TestBailPaths:
    def test_demoting_production_falls_back_mid_run(self):
        # Products overflow the vector bound, demoting the bucket the kernel
        # tracks: the drain must bail and the object path must finish with an
        # identical trace.
        big = columnar_module.VECTOR_INT_BOUND // 2
        initial = values_multiset([big, big, 3, 2])
        plain, columnar = _differential(product_reduction(), initial)
        assert plain.final.counts() == columnar.final.counts()

    def test_budget_exhaustion_message_is_identical(self):
        workload = make_workload("min_element", size=12, seed=0)
        with pytest.raises(NonTerminationError) as plain_err:
            run(workload.program, workload.initial.copy(), config=RuntimeConfig(max_steps=3))
        with pytest.raises(NonTerminationError) as columnar_err:
            run(workload.program, workload.initial.copy(), config=RuntimeConfig(max_steps=3, columnar=True))
        assert str(columnar_err.value) == str(plain_err.value)

    def test_partial_drain_resyncs_the_multiset(self):
        workload = make_workload("min_element", size=12, seed=0)
        plain = run(workload.program, workload.initial.copy(), config=RuntimeConfig(max_steps=4, raise_on_budget=False))
        columnar = run(workload.program, workload.initial.copy(), config=RuntimeConfig(max_steps=4, raise_on_budget=False, columnar=True))
        assert not plain.stable and not columnar.stable
        assert columnar.steps == plain.steps == 4
        assert columnar.final.counts() == plain.final.counts()
        assert _fingerprint(columnar) == _fingerprint(plain)


class TestRuntimeIntegration:
    def test_streaming_columnar_equals_batch(self):
        from repro.runtime.streaming import StreamingGammaRuntime

        workload = make_workload("sum_reduction", size=12, seed=4)
        extra = values_multiset([100, 200, 300])
        union = workload.initial.copy()
        for element, count in extra.counts().items():
            union.add(element, count)
        reference = run(workload.program, union, config=RuntimeConfig(columnar=True))
        runtime = StreamingGammaRuntime(workload.program, config=RuntimeConfig(backend="sequential", columnar=True))
        result = runtime.run(
            workload.initial.copy(),
            schedule=[list(extra.counts().keys())],
        )
        assert result.stable
        assert result.final == reference.final

    def test_simulator_accepts_columnar(self):
        from repro.runtime.gamma_simulator import simulate_program

        workload = make_workload("min_element", size=10, seed=5)
        plain = simulate_program(workload.program, workload.initial.copy(), config=RuntimeConfig(seed=7))
        columnar = simulate_program(workload.program, workload.initial.copy(), config=RuntimeConfig(seed=7, columnar=True))
        assert columnar.final == plain.final
        assert columnar.total_firings == plain.total_firings


class TestProfiler:
    def test_kernel_reports_phases(self):
        class Collector:
            def __init__(self):
                self.phases = {}

            def add(self, phase, seconds):
                self.phases[phase] = self.phases.get(phase, 0.0) + seconds

        workload = make_workload("min_element", size=30, seed=6)
        engine = SequentialEngine(columnar=True)
        engine.profiler = Collector()
        result = engine.run(workload.program, workload.initial.copy())
        assert result.stable
        assert {"guard", "fire", "notify"} <= set(engine.profiler.phases)
