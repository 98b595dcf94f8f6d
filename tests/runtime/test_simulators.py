"""Tests for the multi-PE simulators and the shared PE/metrics model."""

import random

import pytest

from repro.analysis import compare_parallelism, gamma_parallelism
from repro.core import dataflow_to_gamma
from repro.gamma import ParallelEngine
from repro.gamma.stdlib import min_element, sum_reduction, values_multiset
from repro.workloads import LOOP_KERNELS
from repro.runtime import (
    DataflowSimulator,
    GammaSimulator,
    ParallelRunMetrics,
    PEPool,
    simulate_graph,
    simulate_program,
    speedup_curve,
)
from repro.workloads.paper_examples import (
    example1_graph,
    example2_expected_result,
    example2_graph,
)
from repro.api import RuntimeConfig


class TestPEPool:
    def test_bounded_dispatch(self):
        pool = PEPool(2)
        accepted = pool.dispatch(["a", "b", "c"])
        assert accepted == ["a", "b"]
        assert pool.profile == [2]
        assert pool.total_executed == 2

    def test_unbounded_dispatch(self):
        pool = PEPool(None)
        accepted = pool.dispatch(list(range(5)))
        assert len(accepted) == 5
        assert pool.load_balance().count(1) == 5

    def test_invalid_pe_count(self):
        with pytest.raises(ValueError):
            PEPool(0)

    def test_bounded_dispatch_rotates_for_balance(self):
        pool = PEPool(4)
        for _ in range(4):
            pool.dispatch(["work"])
        # One item per step lands on a different PE each time, not pe0 always.
        assert pool.load_balance() == [1, 1, 1, 1]

    def test_rotation_preserves_per_step_accounting(self):
        pool = PEPool(3)
        assert pool.dispatch(["a", "b"]) == ["a", "b"]
        assert pool.dispatch(["c", "d"]) == ["c", "d"]
        assert pool.profile == [2, 2]
        assert pool.total_executed == 4
        assert sorted(pool.load_balance()) == [1, 1, 2]


class TestMetrics:
    def test_from_profile(self):
        metrics = ParallelRunMetrics.from_profile([4, 2, 1, 0], num_pes=4)
        # The trailing stall is a wall step: steps == len(profile).
        assert metrics.steps == 4
        assert metrics.work == 7
        assert metrics.max_parallelism == 4
        assert metrics.speedup == pytest.approx(7 / 4)
        assert metrics.utilization == pytest.approx(7 / 16)

    def test_stall_steps_deflate_speedup_and_utilization(self):
        """Regression (ISSUE 10): zero-width steps were silently dropped.

        A profile with interleaved stalls used to report the same speedup
        and utilization as a stall-free run (here 6/3 = 2.0 and 6/6 = 1.0
        at 2 PEs) — idle wall time vanished from the accounting.  Stalls
        must count as steps with zero work.
        """
        stalled = ParallelRunMetrics.from_profile([2, 0, 2, 0, 0, 2], num_pes=2)
        busy = ParallelRunMetrics.from_profile([2, 2, 2], num_pes=2)
        assert stalled.profile == [2, 0, 2, 0, 0, 2]
        assert stalled.steps == 6
        assert stalled.work == busy.work == 6
        assert busy.speedup == pytest.approx(2.0)
        assert stalled.speedup == pytest.approx(1.0)  # not the inflated 2.0
        assert busy.utilization == pytest.approx(1.0)
        assert stalled.utilization == pytest.approx(0.5)  # not the inflated 1.0
        assert stalled.average_parallelism == pytest.approx(1.0)

    def test_empty_profile(self):
        metrics = ParallelRunMetrics.from_profile([])
        assert metrics.speedup == 0.0
        assert metrics.utilization == 0.0

    def test_speedup_curve(self):
        curve = speedup_curve(
            lambda pes: simulate_graph(example2_graph(y=1, z=6, x=0), num_pes=pes).metrics,
            [1, 2, 4],
        )
        assert curve[1] == pytest.approx(1.0)
        assert curve[4] >= curve[2] >= curve[1]

    def test_speedup_curve_deduplicates_pe_counts_explicitly(self):
        """Duplicate PE counts are simulated once and keep insertion order."""
        calls = []

        def run(pes):
            calls.append(pes)
            return ParallelRunMetrics.from_profile([pes, pes], num_pes=pes)

        curve = speedup_curve(run, [4, 2, 4, 2, 1])
        assert calls == [4, 2, 1]  # each distinct count simulated exactly once
        assert list(curve) == [4, 2, 1]  # first-occurrence order preserved
        assert curve[4] == pytest.approx(4.0)


class TestDataflowSimulator:
    def test_results_match_interpreter(self):
        from repro.dataflow import run_graph

        graph = example2_graph(y=4, z=5, x=3)
        assert simulate_graph(graph, num_pes=3, seed=1).output_values("Cout") == [
            run_graph(graph).single_output("Cout")
        ]

    def test_single_pe_profile_is_all_ones(self):
        result = simulate_graph(example1_graph(), num_pes=1)
        assert set(result.metrics.profile) == {1}
        assert result.metrics.speedup == 1.0

    def test_unbounded_pes_expose_graph_parallelism(self):
        result = simulate_graph(example1_graph(), num_pes=None)
        # R1 and R2 are independent and fire in the same step.
        assert result.metrics.max_parallelism == 2
        assert result.steps == 2

    def test_more_pes_never_slower(self):
        graph = example2_graph(y=1, z=8, x=0)
        steps = [simulate_graph(graph, num_pes=p, seed=0).steps for p in (1, 2, 4, 8)]
        assert steps == sorted(steps, reverse=True)

    def test_root_values_override(self):
        result = DataflowSimulator(example2_graph(), num_pes=2).run(
            root_values={"z": 5, "y": 1, "x": 0}
        )
        assert result.output_values("Cout") == [example2_expected_result(y=1, z=5, x=0)]


class TestGammaSimulator:
    def test_results_match_sequential_engine(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 33))
        result = simulate_program(program, initial, num_pes=4, config=RuntimeConfig(seed=0))
        assert result.final.values_with_label("x") == [sum(range(1, 33))]

    def test_pe_bound_caps_step_width(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 33))
        result = simulate_program(program, initial, num_pes=4, config=RuntimeConfig(seed=0))
        assert result.metrics.max_parallelism <= 4

    def test_parallelism_matches_dataflow_side(self):
        """Experiment E9(a): identical work and steps on both sides of the conversion."""
        graph = example2_graph(y=2, z=6, x=1)
        conversion = dataflow_to_gamma(graph)
        for pes in (1, 3, None):
            df = simulate_graph(graph, num_pes=pes, seed=0).metrics
            gm = GammaSimulator(conversion.program, num_pes=pes, seed=0).run(conversion.initial).metrics
            assert df.work == gm.work
            assert df.steps == gm.steps

    def test_missing_initial_rejected(self):
        with pytest.raises(ValueError):
            simulate_program(sum_reduction(), None)


class TestOneSuperstepNotion:
    """The counting model steps through the collector the engines fire."""

    def test_copy_heavy_steps_match_the_parallel_engine(self):
        # 2 000 values drawn from 1..50: each superstep fires every unclaimed
        # copy of a tuple at once.  The per-copy enumerator this replaced
        # needed 42 steps here, the superstep collector 6.
        rng = random.Random(5)
        initial = values_multiset([rng.randint(1, 50) for _ in range(2000)])
        counted = gamma_parallelism(min_element(), initial, seed=1)
        executed = ParallelEngine(seed=1).run(min_element(), initial)
        assert counted.steps == executed.steps <= 7
        assert counted.profile == executed.parallelism_profile()
        assert counted.work == executed.firings == len(initial) - initial.count(
            min(initial, key=lambda element: element.value)
        )

    def test_pe_budget_clips_decisions_to_firings(self):
        initial = values_multiset([v for v in (1, 2, 3, 4) for _ in range(12)])
        for pes in (1, 3, 7):
            result = simulate_program(
                min_element(), initial, num_pes=pes, config=RuntimeConfig(seed=2)
            )
            assert max(result.metrics.profile) == pes
            assert result.total_firings == result.metrics.work == 36
            assert result.final.values_with_label("x") == [1] * 12

    def test_seeded_counting_model_draws_linearly(self, counting_rng):
        # One permutation per bucket per step: ~2n draws over a fold of n
        # distinct values.  Enumerating every enabled tuple per step, as the
        # old counting model did, drew ~n^2 / 2 in the first step alone.
        n = 2000
        simulator = GammaSimulator(min_element(), seed=1)
        simulator._rng = rng = counting_rng(1)
        result = simulator.run(values_multiset(range(n)))
        assert result.steps == 11 and result.total_firings == n - 1
        assert rng.calls <= 4 * (n + result.total_firings)

    @pytest.mark.parametrize("kernel", sorted(LOOP_KERNELS))
    def test_e9_profiles_match_on_every_loop_kernel(self, kernel):
        # Converted programs carry distinct tags, so every decision is k = 1
        # and the paper's claim is unchanged: same work, same steps.
        comparison = compare_parallelism(LOOP_KERNELS[kernel]().graph(), seed=0)
        assert comparison.profiles_match
        assert comparison.dataflow.profile == comparison.gamma.profile
