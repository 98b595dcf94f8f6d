"""Tests for the incremental reaction scheduler and the engine run-loop contract.

Covers the worklist mechanics (parking dead reactions, dirty-label wakeups,
guard-restricted label domains), the lifecycle (detach unhooks the
listeners), the ``run()`` argument-conflict guard, the
``raise_on_budget=False`` partial-result mode, the exact element-hash
counts of the firing and attach paths, and that a finished run is freed by
reference counting alone.
"""

import gc
import random
from unittest import mock

import pytest

from repro.gamma import (
    ChaoticEngine,
    GammaProgram,
    NonTerminationError,
    ParallelEngine,
    ReactionScheduler,
    SequentialEngine,
    greedy_disjoint_matches,
    run,
)
from repro.core import dataflow_to_gamma
from repro.gamma.compiled import CompiledReaction
from repro.gamma.expr import BoolOp, Compare, Const, Var
from repro.gamma.matching import Matcher
from repro.gamma.pattern import pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import min_element, sum_reduction, values_multiset
from repro.multiset import Element, Multiset
from repro.api import RuntimeConfig
from repro.workloads import LOOP_KERNELS, triangular


def _rewrite(name, src_label, dst_label):
    """A reaction consuming one ``src_label`` element and producing ``dst_label``."""
    return Reaction(
        name,
        [pattern("a", src_label, "t")],
        [Branch(productions=[template("a", dst_label, "t")])],
    )


class TestWorklist:
    def test_dead_reaction_is_parked_after_probe(self):
        program = GammaProgram([_rewrite("R1", "a", "b"), _rewrite("R2", "c", "d")])
        multiset = Multiset([(1, "a", 0)])
        scheduler = ReactionScheduler(program.reactions, multiset)
        match = scheduler.find_first()
        assert match is not None and match.reaction.name == "R1"
        # R1 matched first in declaration order, so nothing is parked yet.
        assert scheduler.parked == frozenset()
        assert scheduler.find_first().reaction.name == "R1"  # R1 still enabled
        multiset.replace(match.consumed, match.produced())
        scheduler.refresh()
        assert scheduler.find_first() is None
        assert scheduler.parked == {0, 1}
        scheduler.detach()

    def test_dirty_label_wakes_only_footprint_reactions(self):
        program = GammaProgram([_rewrite("R1", "a", "b"), _rewrite("R2", "c", "d")])
        multiset = Multiset([(1, "x", 0)])
        scheduler = ReactionScheduler(program.reactions, multiset)
        assert scheduler.find_first() is None
        assert scheduler.parked == {0, 1}
        # Touching 'c' must wake R2 but leave R1 parked.
        multiset.add((5, "c", 0))
        scheduler.refresh()
        assert scheduler.parked == {0}
        assert scheduler.find_first().reaction.name == "R2"
        scheduler.detach()

    def test_variable_label_reaction_wakes_on_any_change(self):
        anything = Reaction(
            "Rany",
            [pattern("a", "lbl", "t", label_is_variable=True),
             pattern("b", "lbl", "t", label_is_variable=True)],
            [Branch(productions=[template("a", "out", "t")])],
        )
        scheduler = ReactionScheduler([anything], Multiset())
        assert scheduler.find_first() is None
        assert scheduler.parked == {0}
        scheduler.multiset.add((1, "whatever", 0))
        scheduler.multiset.add((2, "whatever", 0))
        scheduler.refresh()
        assert scheduler.parked == frozenset()
        assert scheduler.find_first() is not None
        scheduler.detach()

    def test_detach_stops_tracking(self):
        program = GammaProgram([_rewrite("R1", "a", "b")])
        multiset = Multiset([(1, "a", 0)])
        scheduler = ReactionScheduler(program.reactions, multiset)
        scheduler.detach()
        assert not scheduler.index.attached
        # Mutations after detach no longer reach the index.
        before = scheduler.index.as_dict()
        multiset.add((2, "a", 0))
        assert scheduler.index.as_dict() == before
        scheduler.detach()  # idempotent

    def test_shuffled_probe_requires_rng(self):
        scheduler = ReactionScheduler([_rewrite("R1", "a", "b")], Multiset())
        with pytest.raises(ValueError):
            scheduler.find_first(shuffled=True)
        scheduler.detach()

    def test_greedy_disjoint_matches_detaches_its_scheduler(self):
        multiset = values_multiset([1, 2, 3, 4])
        matches = greedy_disjoint_matches(sum_reduction().reactions, multiset)
        assert len(matches) == 2
        # The helper's temporary scheduler must not leave listeners behind.
        assert multiset._listeners == ()


def _is(label):
    return Compare("==", Var("x"), Const(label))


def _merge(guard):
    """One element under a variable label ``x``, restricted (or not) by ``guard``."""
    return Reaction(
        "it1",
        [pattern("v", "x", "t", label_is_variable=True)],
        [Branch(productions=[template("v", "E2", "t")])],
        guard=guard,
    )


def _merge_reactions(kernel):
    conversion = dataflow_to_gamma(kernel.graph())
    return conversion, [r for r in conversion.program.reactions if r.has_variable_label()]


class TestGuardRestrictedWakeups:
    """Algorithm 1's merge reactions (``where x == 'E0' or x == 'E10'``) are
    woken by their literal labels only, not by every change."""

    def test_label_domain_of_the_guard_forms(self):
        assert _merge(BoolOp("or", _is("E0"), _is("E10"))).label_domain() == {"E0", "E10"}
        restricted = BoolOp("and", BoolOp("or", _is("E0"), _is("E10")),
                            Compare(">", Var("v"), Const(3)))
        assert _merge(restricted).label_domain() == {"E0", "E10"}
        # Two restrictions of one variable intersect.
        both = BoolOp("and", BoolOp("or", _is("E0"), _is("E10")), _is("E10"))
        assert _merge(both).label_domain() == {"E10"}
        assert _merge(Compare("==", Const("E4"), Var("x"))).label_domain() == {"E4"}
        assert _rewrite("R1", "a", "b").label_domain() == {"a"}

    @pytest.mark.parametrize("guard", [
        None,
        BoolOp("or", _is("E0"), Compare(">", Var("v"), Const(3))),
        BoolOp("or", _is("E0"), Compare("==", Var("t"), Const("E1"))),
        Compare("==", Var("x"), Const(3)),
        Compare("!=", Var("x"), Const("E0")),
    ], ids=["no-guard", "or-value-test", "or-other-variable", "non-string", "not-equal"])
    @pytest.mark.parametrize("compiled", [True, False])
    def test_other_guards_stay_wildcards(self, guard, compiled):
        reaction = _merge(guard)
        assert reaction.label_domain() is None
        scheduler = ReactionScheduler([reaction], Multiset(), compiled=compiled)
        assert scheduler.find_first() is None
        scheduler.inject([(Element(1, "unrelated", 0), 1)])
        scheduler.refresh()
        assert scheduler.parked == frozenset()
        scheduler.detach()

    @pytest.mark.parametrize("compiled", [True, False])
    def test_streamed_literal_rearms_a_parked_merge(self, compiled):
        conversion, merges = _merge_reactions(triangular(3))
        it1 = next(r for r in merges if r.name == "it1")
        assert it1.label_domain() == {"E0", "E10"}
        scheduler = ReactionScheduler([it1], Multiset(), compiled=compiled)
        assert scheduler.find_first() is None
        assert scheduler.parked == {0}
        scheduler.inject([(Element(5, "E3", 0), 1), (Element(6, "E11", 1), 2)])
        scheduler.refresh()
        assert scheduler.parked == {0}  # no probe: nothing it1 can consume arrived
        scheduler.inject([(Element(7, "E10", 1), 1)])
        scheduler.refresh()
        assert scheduler.parked == frozenset()
        match = scheduler.find_first()
        assert match is not None and match.consumed == (Element(7, "E10", 1),)
        scheduler.detach()

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("kernel", sorted(LOOP_KERNELS))
    def test_loop_kernels_keep_their_final_and_trace(self, kernel, compiled):
        conversion, merges = _merge_reactions(LOOP_KERNELS[kernel]())
        assert merges and all(r.label_domain() is not None for r in merges)
        config = RuntimeConfig(engine="sequential", compiled=compiled)
        precise = run(conversion.program, conversion.initial, config=config)
        with mock.patch.object(Reaction, "label_domain", lambda self: None):
            everywhere = run(conversion.program, conversion.initial, config=config)
        assert precise.final == everywhere.final
        trace = [(f.reaction, f.consumed, f.produced) for f in precise.trace.firings()]
        assert trace == [(f.reaction, f.consumed, f.produced)
                         for f in everywhere.trace.firings()]

    @pytest.mark.parametrize("compiled", [True, False])
    def test_triangular_merge_probe_count(self, compiled):
        """Sequential ``triangular(1000)``: it1 + it2 were probed after every
        firing (13 011 finds); now only when E0/E10 or E1/E11 change."""
        conversion, _ = _merge_reactions(triangular(1000))
        calls = {"it1": 0, "it2": 0}
        finds = {True: (CompiledReaction, "find"), False: (Matcher, "find")}[compiled]
        original = getattr(*finds)

        def counting(self, *args, **kwargs):
            reaction = self.reaction if compiled else args[0]
            if reaction.name in calls:
                calls[reaction.name] += 1
            return original(self, *args, **kwargs)

        with mock.patch.object(*finds, counting):
            result = run(conversion.program, conversion.initial,
                         config=RuntimeConfig(engine="sequential", compiled=compiled))
        assert result.firings == 7005
        assert calls["it1"] + calls["it2"] <= 4004


class TestRunArgumentConflicts:
    def test_engine_instance_with_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run(sum_reduction(), values_multiset([1, 2]), engine=ChaoticEngine(seed=1), seed=2)

    def test_engine_instance_with_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            run(sum_reduction(), values_multiset([1, 2]), engine=SequentialEngine(), max_steps=5)

    def test_engine_instance_with_raise_on_budget_rejected(self):
        with pytest.raises(ValueError, match="raise_on_budget"):
            run(
                sum_reduction(),
                values_multiset([1, 2]),
                engine=SequentialEngine(),
                raise_on_budget=False,
            )

    def test_engine_instance_without_conflicts_accepted(self):
        result = run(sum_reduction(), values_multiset([1, 2, 3]), engine=ParallelEngine(seed=0))
        assert result.final.values_with_label("x") == [6]

    def test_named_engine_still_accepts_everything(self):
        result = run(sum_reduction(), values_multiset([1, 2, 3]), config=RuntimeConfig(engine="chaotic", seed=4, max_steps=50, raise_on_budget=False))
        assert result.stable


class TestBudgetModes:
    def test_budget_raises_by_default(self):
        looping = Reaction(
            "Rloop",
            [pattern("a", "x", "t")],
            [Branch(productions=[template("a", "x", "t")])],
        )
        with pytest.raises(NonTerminationError):
            run(GammaProgram([looping]), values_multiset([1]), config=RuntimeConfig(engine="sequential", max_steps=10))

    def test_partial_result_when_budget_disabled(self, engine_name):
        result = run(sum_reduction(), values_multiset(range(1, 33)), config=RuntimeConfig(engine=engine_name, seed=0, max_steps=3, raise_on_budget=False))
        assert not result.stable
        assert result.steps == 3
        # The partial multiset conserves the sum even mid-run.
        assert sum(result.final.values_with_label("x")) == sum(range(1, 33))

    def test_completed_run_is_stable(self):
        result = run(sum_reduction(), values_multiset([1, 2, 3]), config=RuntimeConfig(engine="sequential"))
        assert result.stable
        assert result.final.values_with_label("x") == [6]

    def test_sequential_composition_stops_at_exhausted_stage(self):
        from repro.gamma.program import sequential

        program = sequential(sum_reduction(), min_element())
        engine = SequentialEngine(max_steps=2, raise_on_budget=False)
        result = engine.run(program, values_multiset([1, 2, 3, 4, 5]))
        assert not result.stable
        assert result.steps == 2

    def test_run_loop_leaves_no_listeners_behind(self):
        initial = values_multiset([4, 1, 3])
        for engine in (SequentialEngine(), ChaoticEngine(seed=0), ParallelEngine(seed=0)):
            result = engine.run(min_element(), initial)
            assert result.final._listeners == ()


class TestElementHashGates:
    """Exact ``Element.__hash__`` call counts on the firing and attach paths.

    ``Element.__hash__`` is a Python-level method returning a cached int, so
    every dict operation keyed by an element costs a Python frame.  The
    multiset is the one store of counts and the scheduler's index only views
    it; a second, listener-maintained copy of the buckets shows up here as
    extra calls however fast the machine is.
    """

    @staticmethod
    def _counting_hash(calls):
        def counting(element):
            calls[0] += 1
            return element._hash

        return mock.patch.object(Element, "__hash__", counting)

    def test_sequential_min_element_firing_hashes(self):
        values = list(range(2000))
        random.Random(5).shuffle(values)
        initial = values_multiset(values)
        calls = [0]
        with self._counting_hash(calls):
            result = SequentialEngine().run(min_element(), initial)
        assert result.final.values_with_label("x") == [0]
        firings = result.trace.num_firings
        assert firings == 1999
        # Each removal or insertion is four element-keyed dict operations on
        # the one store: 17 calls per firing, against 37 when the index kept
        # its own listener-maintained copy of the buckets.
        assert calls[0] / firings <= 20

    def test_attaching_a_scheduler_hashes_no_element(self):
        multiset = values_multiset(range(100_000))
        calls = [0]
        with self._counting_hash(calls):
            scheduler = ReactionScheduler(min_element().reactions, multiset)
        assert calls[0] == 0
        assert len(scheduler.index) == 100_000
        scheduler.detach()


def _distributed_run(initial):
    from repro.runtime.distributed import DistributedGammaRuntime

    config = RuntimeConfig(backend="inprocess", shards=4)
    return DistributedGammaRuntime(min_element(), config=config).run(initial)


GARBAGE_ROWS = {
    f"{engine}-{'columnar' if columnar else 'object'}": (
        lambda initial, engine=engine, columnar=columnar: run(
            min_element(),
            initial,
            config=RuntimeConfig(
                engine=engine, seed=None if engine == "sequential" else 3, columnar=columnar
            ),
        )
    )
    for engine in ("sequential", "chaotic", "parallel")
    for columnar in (False, True)
}
GARBAGE_ROWS["distributed-inprocess-4"] = _distributed_run


@pytest.mark.parametrize("row", sorted(GARBAGE_ROWS))
def test_finished_run_leaves_no_cyclic_garbage(row):
    """No run leaves a reference cycle: the scheduler's listener closes over
    the dirty set rather than the scheduler, and a compiled reaction's mask
    program does not point back at it.  The first run fills the process-wide
    caches (generated code, lazy imports); the second must free everything it
    built by reference counting, so the cyclic collector finds nothing."""
    execute = GARBAGE_ROWS[row]
    execute(values_multiset(range(200, 0, -1)))
    gc.collect()
    gc.disable()
    try:
        execute(values_multiset(range(200, 0, -1)))
        assert gc.collect() == 0
    finally:
        gc.enable()
