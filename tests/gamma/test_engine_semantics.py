"""Tests of the Γ operator semantics (Eq. 1) across all execution engines.

Experiment E7: termination exactly at the stable state, scheduler independence
for confluent programs, nondeterminism control via seeds, and the step/firing
accounting used by the parallelism analyses.
"""

import pytest

from repro.gamma import (
    ChaoticEngine,
    GammaProgram,
    NonTerminationError,
    ParallelEngine,
    SequentialEngine,
    run,
)
from repro.gamma.expr import Compare, Const, Var
from repro.gamma.pattern import pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import (
    max_element,
    min_element,
    prime_sieve,
    sum_reduction,
    values_multiset,
)
from repro.multiset import Multiset
from repro.api import RuntimeConfig

# Engine sweeps come from the shared parametrized ``engine_name`` fixture
# (tests/conftest.py), not a module-local list.


class TestTermination:
    def test_stable_state_reached(self, engine_name):
        result = run(sum_reduction(), values_multiset([1, 2, 3, 4]), config=RuntimeConfig(engine=engine_name, seed=0))
        assert result.final.to_tuples() == [(10, "x", 0)]
        assert result.stable

    def test_no_enabled_reaction_returns_input(self, engine_name):
        # Eq. 1: if no condition holds, the result is the initial multiset.
        program = min_element()
        single = values_multiset([42])
        result = run(program, single, config=RuntimeConfig(engine=engine_name, seed=0))
        assert result.final == single
        assert result.firings == 0
        assert result.steps == 0

    def test_non_termination_detected(self):
        # A reaction that always rewrites an element to itself never stabilizes.
        looping = Reaction(
            "Rloop",
            [pattern("a", "x", "t")],
            [Branch(productions=[template("a", "x", "t")])],
        )
        program = GammaProgram([looping])
        with pytest.raises(NonTerminationError):
            run(program, values_multiset([1]), config=RuntimeConfig(engine="sequential", max_steps=100))

    def test_missing_initial_multiset_raises(self):
        with pytest.raises(ValueError):
            run(sum_reduction(), None, config=RuntimeConfig(engine="sequential"))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run(sum_reduction(), values_multiset([1, 2]), config=RuntimeConfig(engine="quantum"))


class TestSchedulerIndependence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_confluent_results_do_not_depend_on_schedule(self, engine_name, seed):
        values = [9, 1, 7, 3, 5, 11, 2]
        result = run(min_element(), values_multiset(values), config=RuntimeConfig(engine=engine_name, seed=seed))
        assert result.final.to_tuples() == [(1, "x", 0)]

    def test_sum_firing_count_is_schedule_invariant(self, engine_name):
        values = list(range(1, 17))
        result = run(sum_reduction(), values_multiset(values), config=RuntimeConfig(engine=engine_name, seed=3))
        # n values always need exactly n-1 pairwise combinations.
        assert result.firings == len(values) - 1

    def test_sieve_result_stable_across_seeds(self):
        initial = values_multiset(range(2, 40))
        results = {
            tuple(sorted(run(prime_sieve(), initial, config=RuntimeConfig(engine="chaotic", seed=s)).final.values_with_label("x")))
            for s in range(5)
        }
        assert len(results) == 1
        (primes,) = results
        assert primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class TestEngineSpecifics:
    def test_sequential_is_deterministic(self):
        a = run(max_element(), values_multiset([4, 9, 2]), config=RuntimeConfig(engine="sequential"))
        b = run(max_element(), values_multiset([4, 9, 2]), config=RuntimeConfig(engine="sequential"))
        assert a.trace.firing_counts() == b.trace.firing_counts()
        assert a.final == b.final

    def test_chaotic_seed_reproducibility(self):
        initial = values_multiset(range(10))
        a = ChaoticEngine(seed=5).run(sum_reduction(), initial)
        b = ChaoticEngine(seed=5).run(sum_reduction(), initial)
        assert [f.consumed for f in a.trace.firings()] == [f.consumed for f in b.trace.firings()]

    def test_max_parallel_profile_matches_binary_tree(self):
        result = ParallelEngine(seed=1).run(sum_reduction(), values_multiset(range(1, 17)))
        assert result.trace.parallelism_profile() == [8, 4, 2, 1]
        assert result.firings == 15
        assert result.steps == 4

    def test_max_parallel_respects_conflicts(self):
        # Two reactions over the same single pair of elements cannot both fire.
        program = min_element() | max_element()
        result = ParallelEngine(seed=0).run(program, values_multiset([3, 8]))
        assert result.trace.steps[0].width == 1

    def test_sequential_one_firing_per_step(self):
        result = SequentialEngine().run(sum_reduction(), values_multiset([1, 2, 3, 4]))
        assert all(step.width == 1 for step in result.trace.steps)


class TestComposition:
    def test_parallel_composition_runs_both_blocks(self):
        # min over label 'x' and max over label 'y' run in the same solution.
        from repro.gamma.stdlib import min_element as mk_min, max_element as mk_max

        program = mk_min("x") | mk_max("y")
        initial = values_multiset([5, 2, 9], label="x") + values_multiset([5, 2, 9], label="y")
        result = run(program, initial, config=RuntimeConfig(engine="chaotic", seed=0))
        assert result.final.values_with_label("x") == [2]
        assert result.final.values_with_label("y") == [9]

    def test_sequential_composition_stages_in_order(self):
        from repro.gamma.stdlib import count_threshold

        program = count_threshold(5)
        result = run(program, values_multiset([7, 3, 9, 1, 4]), config=RuntimeConfig(engine="sequential"))
        assert result.final.values_with_label("count") == [2]

    def test_conditional_branches_route_like_steer(self):
        steer_like = Reaction(
            "st",
            [pattern("d", "data", "v"), pattern("c", "ctl", "v")],
            [
                Branch([template("d", "true_out", "v")], condition=Compare("==", Var("c"), Const(1))),
                Branch([template("d", "false_out", "v")], condition=None),
            ],
        )
        program = GammaProgram([steer_like])
        taken = run(program, Multiset([(10, "data", 0), (1, "ctl", 0)]), config=RuntimeConfig(engine="sequential"))
        assert taken.final.to_tuples() == [(10, "true_out", 0)]
        not_taken = run(program, Multiset([(10, "data", 0), (0, "ctl", 0)]), config=RuntimeConfig(engine="sequential"))
        assert not_taken.final.to_tuples() == [(10, "false_out", 0)]
