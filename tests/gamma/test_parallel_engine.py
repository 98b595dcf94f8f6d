"""Tests for the batched superstep backend (ParallelEngine + collectors)."""

import random
from collections import Counter
from unittest import mock

import pytest

from repro.gamma import (
    GammaProgram,
    NonTerminationError,
    ParallelEngine,
    ReactionScheduler,
    SequentialEngine,
    compile_reaction,
    run,
)
from repro.gamma.compiled import CompiledMatch, CompiledReaction
from repro.gamma.expr import BinOp, Compare, Const, EvaluationError, Var
from repro.gamma.pattern import ElementTemplate, pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import min_element, sum_reduction, values_multiset
from repro.multiset import Element, Multiset
from repro.runtime.sharding import ShardWorker
from repro.workloads import CLASSIC_WORKLOADS, make_workload
from repro.api import RuntimeConfig


def _trace_key(result):
    return [
        (f.step, f.reaction, f.consumed, f.produced, f.binding, f.times)
        for f in result.trace.firings()
    ]


class TestParallelEngine:
    @pytest.mark.parametrize("name", CLASSIC_WORKLOADS)
    def test_reaches_sequential_stable_state(self, name):
        workload = make_workload(name, size=28, seed=4)
        sequential = SequentialEngine().run(workload.program, workload.initial)
        parallel = ParallelEngine().run(workload.program, workload.initial)
        assert parallel.stable and parallel.final == sequential.final
        assert parallel.engine == "parallel"

    def test_supersteps_fire_batches(self):
        workload = make_workload("sum_reduction", size=64, seed=1)
        result = ParallelEngine().run(workload.program, workload.initial)
        # 63 firings compressed into ~log2(64) supersteps, widest first.
        assert result.firings == 63
        assert result.steps < 10
        profile = result.parallelism_profile()
        assert profile[0] == 32
        assert profile == sorted(profile, reverse=True)

    def test_seeded_runs_are_repeatable(self):
        workload = make_workload("min_element", size=40, seed=9)
        reference = ParallelEngine(seed=5).run(workload.program, workload.initial)
        other = ParallelEngine(seed=5).run(workload.program, workload.initial)
        assert _trace_key(other) == _trace_key(reference)
        assert other.final == reference.final

    def test_unseeded_runs_are_deterministic(self):
        workload = make_workload("exchange_sort", size=12, seed=2)
        first = ParallelEngine().run(workload.program, workload.initial)
        second = ParallelEngine().run(workload.program, workload.initial)
        assert _trace_key(first) == _trace_key(second)

    def test_max_batch_caps_superstep_width(self):
        workload = make_workload("sum_reduction", size=32, seed=0)
        result = ParallelEngine(max_batch=3).run(workload.program, workload.initial)
        assert max(result.parallelism_profile()) <= 3
        assert result.final.values_with_label("x") == [
            sum(workload.initial.values_with_label("x"))
        ]

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("max_batch", [1, 2, 3, 7])
    def test_max_batch_caps_firings_not_matches(self, max_batch, seed):
        # 12 copies per value: one match stands for up to 12 firings, so the
        # cap has to clip ``times`` — capping the match *list* would let a
        # single superstep fire far more than max_batch.
        initial = values_multiset([v for v in (1, 2, 3, 4) for _ in range(12)])
        for program in (min_element(), sum_reduction()):
            sequential = SequentialEngine().run(program, initial)
            result = ParallelEngine(seed=seed, max_batch=max_batch).run(program, initial)
            assert max(result.parallelism_profile()) <= max_batch
            assert result.final == sequential.final
            assert result.firings == sequential.firings == result.trace.num_firings

    def test_interpreted_mode_matches_compiled_final_state(self):
        workload = make_workload("min_element", size=20, seed=6)
        compiled = ParallelEngine(compiled=True).run(workload.program, workload.initial)
        interpreted = ParallelEngine(compiled=False).run(
            workload.program, workload.initial
        )
        assert interpreted.final == compiled.final

    def test_budget_exhaustion_raises_or_returns_partial(self):
        workload = make_workload("sum_reduction", size=64, seed=1)
        with pytest.raises(NonTerminationError):
            ParallelEngine(max_steps=2).run(workload.program, workload.initial)
        partial = ParallelEngine(max_steps=2, raise_on_budget=False).run(
            workload.program, workload.initial
        )
        assert not partial.stable and partial.steps == 2

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ParallelEngine(max_batch=0)


class TestRunParallelWiring:
    def test_parallel_true_selects_parallel_engine(self):
        workload = make_workload("min_element", size=16, seed=3)
        result = run(workload.program, workload.initial, config=RuntimeConfig(parallel=True))
        assert result.engine == "parallel"
        assert result.values_with_label("x") == workload.expected_values

    def test_parallel_is_a_flag_not_a_worker_count(self):
        workload = make_workload("min_element", size=16, seed=3)
        with pytest.raises(ValueError, match="parallel must be True, False or None"):
            run(workload.program, workload.initial, config=RuntimeConfig(parallel=4, seed=7))
        with pytest.raises(TypeError, match="workers"):
            ParallelEngine(workers=2)

    def test_parallel_false_is_the_sequential_default(self):
        workload = make_workload("min_element", size=16, seed=3)
        default = run(workload.program, workload.initial)
        explicit = run(workload.program, workload.initial, config=RuntimeConfig(parallel=False))
        assert explicit.engine == default.engine == "sequential"
        assert _trace_key(explicit) == _trace_key(default)

    def test_parallel_false_tolerated_with_any_engine(self):
        # Sweep idiom: a uniform parallel=False must not conflict with
        # explicit engine names or instances.
        workload = make_workload("min_element", size=8, seed=0)
        by_name = run(workload.program, workload.initial, config=RuntimeConfig(engine="chaotic", seed=1, parallel=False))
        assert by_name.engine == "chaotic"
        by_instance = run(workload.program, workload.initial,
                          engine=SequentialEngine(), parallel=False)
        assert by_instance.engine == "sequential"

    def test_parallel_engine_name_is_runnable(self):
        workload = make_workload("sum_reduction", size=16, seed=3)
        result = run(workload.program, workload.initial, config=RuntimeConfig(engine="parallel"))
        assert result.engine == "parallel"

    def test_parallel_conflicts_with_other_engines(self):
        workload = make_workload("min_element", size=8, seed=0)
        with pytest.raises(ValueError, match="parallel"):
            run(workload.program, workload.initial, config=RuntimeConfig(engine="chaotic", parallel=True))
        with pytest.raises(ValueError, match="parallel"):
            run(workload.program, workload.initial, engine=ParallelEngine(), parallel=True)


class TestSuperstepCollection:
    def test_collect_superstep_matches_is_disjoint_and_maximal(self):
        multiset = values_multiset([4, 1, 7, 3, 9, 5])
        scheduler = ReactionScheduler(sum_reduction().reactions, multiset)
        try:
            matches = scheduler.collect_superstep_matches()
            consumed = [e for m in matches for e in m.consumed]
            assert len(matches) == 3  # maximal pairing of six elements
            assert len(consumed) == len(set(consumed)) == 6
        finally:
            scheduler.detach()

    def test_collect_respects_multiplicities(self):
        # Both copies of 1 anchor a match: exhausting a distinct element must
        # not advance past its remaining copies.
        multiset = values_multiset([1, 1, 5, 7])
        scheduler = ReactionScheduler(min_element().reactions, multiset)
        try:
            matches = scheduler.collect_superstep_matches()
            assert len(matches) == 2
            anchors = sorted(m.consumed[0].value for m in matches)
            assert anchors == [1, 1]
        finally:
            scheduler.detach()

    def test_self_pairing_consumes_two_copies(self):
        # One distinct element with multiplicity 5: the single (e, e) tuple
        # (candidates are distinct elements, the same discipline as the
        # interpreted matcher) holds one object in both slots, so each firing
        # costs two copies and it fires 5 // 2 times.
        multiset = values_multiset([2, 2, 2, 2, 2])
        scheduler = ReactionScheduler(sum_reduction().reactions, multiset)
        try:
            matches = scheduler.collect_superstep_matches()
            assert len(matches) == 1
            assert matches[0].consumed[0] is matches[0].consumed[1]
            assert matches[0].times == 2
        finally:
            scheduler.detach()

    @pytest.mark.parametrize("options", [{}, {"columnar": True}, {"compiled": False}])
    def test_matches_carry_multiplicity(self, options):
        # 3 x 1, 5 x 2, 4 x 3 under min_element: (1, 2) fires min(3, 5) times,
        # then the two unclaimed 2s take two of the 3s — one decision per
        # distinct tuple, by codegenned, columnar and accounting collectors.
        multiset = values_multiset([1] * 3 + [2] * 5 + [3] * 4)
        scheduler = ReactionScheduler(min_element().reactions, multiset, **options)
        try:
            matches = scheduler.collect_superstep_matches()
        finally:
            scheduler.detach()
        decisions = [
            (tuple(e.value for e in m.consumed), m.times) for m in matches
        ]
        assert decisions == [((1, 2), 3), ((2, 3), 2)]
        assert "×3" in repr(matches[0])

    def test_budget_caps_collection(self):
        multiset = values_multiset(range(1, 17))
        scheduler = ReactionScheduler(min_element().reactions, multiset)
        try:
            assert len(scheduler.collect_superstep_matches(budget=5)) == 5
        finally:
            scheduler.detach()

    def test_budget_clips_the_last_match(self):
        # The budget counts firings: (1, 2) x 10 is clipped to the remainder
        # and collection stops there.
        multiset = values_multiset([1] * 10 + [2] * 15 + [3] * 10)
        scheduler = ReactionScheduler(min_element().reactions, multiset)
        try:
            assert [m.times for m in scheduler.collect_superstep_matches(budget=7)] == [7]
            assert [m.times for m in scheduler.collect_superstep_matches(budget=13)] == [10, 3]
            assert [m.times for m in scheduler.collect_superstep_matches()] == [10, 5]
        finally:
            scheduler.detach()

    def test_empty_collection_parks_dead_reactions(self):
        dead = Reaction(
            "Rdead",
            [pattern("a", "missing", "t")],
            [Branch(productions=[template("a", "missing", "t")])],
        )
        scheduler = ReactionScheduler([dead], values_multiset([1, 2]))
        try:
            assert scheduler.collect_superstep_matches() == []
            assert scheduler.parked == {0}
        finally:
            scheduler.detach()

    def test_collector_exists_for_paper_reactions(self):
        for program in (min_element(), sum_reduction()):
            for reaction in program.reactions:
                assert compile_reaction(reaction).supports_collect

    def test_unknown_label_reaction_falls_back(self):
        anything = Reaction(
            "Rany",
            [
                pattern("a", "lbl", "t", label_is_variable=True),
                pattern("b", "lbl", "t", label_is_variable=True),
            ],
            [Branch(productions=[template("a", "out", "t")])],
        )
        compiled = compile_reaction(anything)
        assert not compiled.supports_collect
        # The scheduler still extracts a disjoint batch through iter_matches.
        multiset = Multiset([(1, "p", 0), (2, "p", 0), (3, "q", 0), (4, "q", 0)])
        scheduler = ReactionScheduler([anything], multiset)
        try:
            matches = scheduler.collect_superstep_matches()
            consumed = [e for m in matches for e in m.consumed]
            assert len(matches) == 2
            assert len(consumed) == len(set(consumed)) == 4
        finally:
            scheduler.detach()

    def test_high_arity_duplicates_never_overconsume(self):
        # Regression: an object held by two outer slots with one copy left
        # must break the held prefix, not anchor another (infeasible) match.
        from repro.gamma.expr import BinOp, Var

        add3 = Reaction(
            "R3",
            [pattern("x", "v", "t1"), pattern("y", "v", "t2"), pattern("z", "v", "t3")],
            [
                Branch(
                    productions=[
                        template(
                            BinOp("+", BinOp("+", Var("x"), Var("y")), Var("z")),
                            "v",
                            "t1",
                        )
                    ]
                )
            ],
        )
        program = GammaProgram([add3], name="fold3")
        for copies in range(1, 12):
            initial = Multiset([(1, "v", 0)] * copies)
            result = ParallelEngine().run(program, initial)
            assert result.stable
            assert sum(e.value for e in result.final) == copies
            assert len(result.final) == len(
                SequentialEngine().run(program, initial).final
            )

    def test_seeded_run_draws_linearly_in_elements_plus_firings(self, counting_rng):
        # Each superstep shuffles the live bucket once and buckets halve, so
        # a seeded fold over n distinct values draws ~ 2n indices in total
        # (the per-candidate reshuffle this pins against drew ~ n^2 / 2 in
        # the first superstep alone).
        n = 4_000
        engine = ParallelEngine(seed=1)
        engine._rng = rng = counting_rng(1)
        result = engine.run(min_element(), values_multiset(range(n)))
        assert result.stable and result.firings == n - 1
        assert rng.calls <= 4 * (n + result.firings)

    def test_parallel_engine_runs_fallback_reactions(self):
        anything = Reaction(
            "Rany",
            [
                pattern("a", "lbl", "t", label_is_variable=True),
                pattern("b", "lbl", "t", label_is_variable=True),
            ],
            [Branch(productions=[template("a", "out", "t")])],
        )
        program = GammaProgram([anything], name="wildcard")
        initial = Multiset([(1, "p", 0), (2, "p", 0), (3, "q", 0)])
        result = ParallelEngine().run(program, initial)
        assert result.stable
        assert sorted(e.label for e in result.final) == ["out", "p"] or sorted(
            e.label for e in result.final
        ) == ["out", "q"]


def _keep_left():
    """``replace x, y by x``: the template re-emits the pattern binding it."""
    return Reaction(
        "Rkeep",
        [pattern("a", "x", "t1"), pattern("b", "x", "t2")],
        [Branch(productions=[template("a", "x", "t1")])],
        guard=Compare("<", Var("a"), Var("b")),
    )


def _collect_once(reactions, multiset, **options):
    scheduler = ReactionScheduler(reactions, multiset, **options)
    try:
        return scheduler.collect_superstep_matches()
    finally:
        scheduler.detach()


class TestSuperstepBatch:
    def test_non_positive_budgets_are_refused(self):
        scheduler = ReactionScheduler(min_element().reactions, values_multiset([3, 1, 2]))
        try:
            for budget in (0, -1):
                with pytest.raises(ValueError, match="budget"):
                    scheduler.collect_superstep_matches(budget=budget)
            assert len(scheduler.collect_superstep_matches(budget=1)) == 1
        finally:
            scheduler.detach()

    def test_batch_is_a_sequence_of_matches(self):
        batch = _collect_once(min_element().reactions, values_multiset([1] * 3 + [2] * 5))
        assert len(batch) == 1 and batch.firings == 3
        (match,) = batch
        assert batch[0] is match and batch[-1] is match and list(batch) == [match]
        assert batch == [match] and batch != []
        assert (match.consumed, match.binding, match.times) == (
            (Element(1, "x", 0), Element(2, "x", 0)),
            {"a": 1, "t1": 0, "b": 2, "t2": 0},
            3,
        )
        assert batch.removed == {Element(1, "x", 0): 3, Element(2, "x", 0): 3}
        assert batch.added == {Element(1, "x", 0): 3}
        empty = _collect_once(min_element().reactions, values_multiset([4]))
        assert empty == [] and not empty and empty.firings == 0

    @pytest.mark.parametrize("options", [{}, {"columnar": True}, {"rng": random.Random(3)}])
    def test_pass_through_hands_back_the_consumed_objects(self, options):
        multiset = values_multiset([1, 2, 2, 3, 5])
        batch = _collect_once([_keep_left()], multiset, **options)
        assert batch.added
        consumed = [element for match in batch for element in match.consumed]
        for element in batch.added:
            assert any(element is held for held in consumed)
        # Materialised matches still produce fresh, equal elements.
        assert [e for m in batch for e in m.produced()] == [
            rec[2][0] for rec in batch.records
        ]

    def test_constant_tag_passes_through_only_when_the_tag_is_that_object(self):
        # min_element re-emits its left element with tag 0: a tag-0 element
        # comes back as itself, a tag-1 element as a fresh tag-0 element.
        multiset = Multiset([Element(1, "x", 0), Element(2, "x", 0), Element(3, "x", 1), Element(4, "x", 1)])
        batch = _collect_once(min_element().reactions, multiset)
        by_value = {record[1][0].value: (record[1][0], record[2][0]) for record in batch.records}
        held, produced = by_value[1]
        assert produced is held
        held, produced = by_value[3]
        assert produced == Element(3, "x", 0) and produced is not held

    def test_join_keeps_the_binding_patterns_value(self):
        # ``a`` is bound by the first pattern (the int 1); re-emitting the
        # second pattern's label and tag must not hand back its 1.0, and
        # re-emitting the first pattern's label with the second pattern's
        # tag must not hand back the first element.
        join = Reaction(
            "Rjoin",
            [pattern("a", "x", "t1"), pattern("a", "y", "t2")],
            [Branch(productions=[template("a", "y", "t2"), template("a", "x", "t2")])],
        )
        multiset = Multiset([Element(1, "x", 0), Element(1.0, "y", 1)])
        for compiled in (True, False):
            batch = _collect_once([join], multiset.copy(), compiled=compiled)
            assert list(batch.added) == [Element(1, "y", 1), Element(1, "x", 1)]
            assert [type(e.value) for e in batch.added] == [int, int]
            assert batch[0].produced() == list(batch.added)

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize(
        "production, error",
        [
            # An int label fails the template's label check.
            (ElementTemplate(Const(1), Var("a"), Const(0)), TypeError),
            # A negative tag fails Element's own check.
            (ElementTemplate(Const(1), Const("out"), Var("a")), ValueError),
            # 1 / 0 fails the expression evaluator.
            (ElementTemplate(BinOp("/", Const(1), Var("a")), Const("out"), Const(0)), EvaluationError),
        ],
    )
    def test_raising_production_leaves_the_multiset_untouched(self, compiled, production, error):
        reaction = Reaction("Rraise", [pattern("a", "x", "t")], [Branch(productions=[production])])
        worker = ShardWorker(0, [reaction], compiled=compiled)
        worker.ingest([(Element(0, "x", 0), 2), (Element(-2, "x", 0), 2)])
        before = worker.multiset.copy()
        try:
            with pytest.raises(error):
                worker.run_local()
            assert worker.multiset == before
            assert list(worker.multiset.counts()) == list(before.counts())
        finally:
            worker.close()

    def test_seeded_shard_run_builds_no_match(self):
        # The count gate: the superstep path claims, produces and counts in
        # the generated collector — no CompiledReaction.apply call, no
        # CompiledMatch — and matches only materialise when iterated.
        rng = random.Random(1)
        values = [rng.randint(1, 1000) for _ in range(10_000)]
        worker = ShardWorker(0, min_element().reactions, seed=3)
        worker.ingest([(Element(value, "x", 0), 1) for value in values])
        calls = Counter()
        real_apply, real_init = CompiledReaction.apply, CompiledMatch.__init__

        def apply(self, binding):
            calls["apply"] += 1
            return real_apply(self, binding)

        def init(self, *args, **kwargs):
            calls["match"] += 1
            real_init(self, *args, **kwargs)

        try:
            with mock.patch.object(CompiledReaction, "apply", apply), mock.patch.object(
                CompiledMatch, "__init__", init
            ):
                report = worker.run_local()
                assert report.stable and report.fired == len(values) - values.count(min(values))
                assert calls == Counter()
                worker.ingest([(Element(value, "x", 0), 1) for value in (1500, 2000)])
                worker.scheduler.refresh()
                batch = worker.scheduler.collect_superstep_matches()
                assert calls == Counter()
                assert len(list(batch)) == len(batch) == calls["match"] > 0
        finally:
            worker.close()
