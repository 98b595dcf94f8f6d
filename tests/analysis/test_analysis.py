"""Tests for the parallelism, granularity, memoization and report modules."""

import pytest

from repro.analysis import (
    compare_parallelism,
    critical_path_length,
    dataflow_parallelism,
    format_dict,
    format_profile,
    format_table,
    gamma_parallelism,
    granularity_report,
    graph_width,
    matching_probability,
    reuse_from_dataflow,
    reuse_from_gamma,
    run_with_memoization,
    section,
)
from repro.core import dataflow_to_gamma, reduce_program
from repro.gamma import run
from repro.gamma.stdlib import min_element, sum_reduction, values_multiset
from repro.workloads.expressions import ExpressionSpec, random_expression_graph
from repro.workloads.loops import accumulation
from repro.workloads.paper_examples import example1_graph, example2_graph
from repro.api import RuntimeConfig


class TestStaticParallelism:
    def test_example1_critical_path_and_width(self):
        graph = example1_graph()
        assert critical_path_length(graph) == 2   # (+ or *) then (-)
        assert graph_width(graph) == 2            # + and * are independent

    def test_random_dag_bounds(self):
        graph = random_expression_graph(ExpressionSpec(num_inputs=4, num_operations=12, seed=3))
        depth = critical_path_length(graph)
        width = graph_width(graph)
        assert 1 <= depth <= 12
        assert 1 <= width <= 12

    def test_cyclic_graph_rejected(self):
        from repro.dataflow.graph import GraphError

        with pytest.raises(GraphError):
            critical_path_length(example2_graph())


class TestDynamicParallelism:
    def test_dataflow_vs_gamma_profiles_match(self):
        comparison = compare_parallelism(example2_graph(y=1, z=5, x=0), num_pes=None, seed=0)
        assert comparison.profiles_match
        rows = dict((name, (a, b)) for name, a, b in comparison.as_rows())
        assert rows["work"][0] == rows["work"][1]

    def test_bounded_pe_comparison(self):
        comparison = compare_parallelism(example2_graph(y=1, z=5, x=0), num_pes=2, seed=0)
        assert comparison.dataflow.max_parallelism <= 2
        assert comparison.gamma.max_parallelism <= 2

    def test_gamma_parallelism_unbounded_counts_full_supersteps(self):
        metrics = gamma_parallelism(sum_reduction(), values_multiset(range(1, 17)), num_pes=None)
        assert metrics.profile == [8, 4, 2, 1]

    def test_dataflow_parallelism_returns_metrics(self):
        metrics = dataflow_parallelism(example1_graph(), num_pes=None)
        assert metrics.work == 3  # three operator firings


class TestGranularity:
    def test_report_fields(self):
        conversion = dataflow_to_gamma(example1_graph())
        report = granularity_report("ex1", conversion.program, conversion.initial)
        data = report.as_dict()
        assert data["reactions"] == 3
        assert 0.0 <= data["match_probability"] <= 1.0

    def test_matching_probability_monotonic_with_fusion(self):
        conversion = dataflow_to_gamma(example1_graph())
        reduced = reduce_program(conversion.program).program
        p_fine = matching_probability(conversion.program, conversion.initial, samples=4000, seed=1)
        p_coarse = matching_probability(reduced, conversion.initial, samples=4000, seed=1)
        assert p_coarse < p_fine

    def test_empty_multiset_probability_zero(self):
        from repro.multiset import Multiset

        assert matching_probability(min_element(), Multiset(), samples=10) == 0.0


class TestMemoization:
    def test_reuse_detected_in_loops(self):
        """A loop adding the same constant every iteration repeats its signatures."""
        kernel = accumulation(y=1, z=8, x=0)
        stats = reuse_from_dataflow(kernel.graph())
        assert stats.total > stats.unique
        assert stats.reuse_ratio > 0.0

    def test_reuse_statistics_match_across_models(self):
        graph = accumulation(y=1, z=6, x=0).graph()
        conversion = dataflow_to_gamma(graph)
        df_stats = reuse_from_dataflow(graph)
        gamma_stats = reuse_from_gamma(conversion.program)
        # One firing per converted reaction per node firing: identical totals.
        assert df_stats.total == gamma_stats.total
        # Reuse counts agree up to the entry-vs-loop-back label distinction of the
        # inctag reactions (the Gamma signature sees A1 vs A11 where the dataflow
        # port sees the same operand), so the Gamma side may find at most one
        # fewer reusable firing per inctag vertex.
        inctag_count = graph.counts_by_kind().get("inctag", 0)
        assert gamma_stats.reusable <= df_stats.reusable <= gamma_stats.reusable + inctag_count
        assert gamma_stats.reusable > 0

    def test_memoized_run_preserves_semantics(self):
        graph = accumulation(y=2, z=7, x=3).graph()
        conversion = dataflow_to_gamma(graph)
        memoized = run_with_memoization(conversion.program, conversion.initial)
        reference = run(conversion.program, config=RuntimeConfig(engine="sequential"))
        assert memoized.final == reference.final
        assert memoized.firings == memoized.computed + memoized.replayed
        assert memoized.replayed > 0
        assert 0.0 < memoized.savings_ratio < 1.0

    def test_no_reuse_in_expression_dag(self):
        conversion = dataflow_to_gamma(example1_graph())
        memoized = run_with_memoization(conversion.program, conversion.initial)
        assert memoized.replayed == 0


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_profile(self):
        text = format_profile([3, 2, 1])
        assert "###" in text and "peak 3" in text
        assert "(empty)" in format_profile([])

    def test_format_dict_and_section(self):
        assert "answer" in format_dict({"answer": 42})
        assert "Experiment" in section("Experiment")


class TestShardingAnalysis:
    def test_shard_balance_even_and_skewed(self):
        from repro.analysis import shard_balance

        assert shard_balance([5, 5, 5, 5]) == pytest.approx(1.0)
        assert shard_balance([20, 0, 0, 0]) == pytest.approx(4.0)
        assert shard_balance([]) == 1.0
        assert shard_balance([0, 0]) == 1.0

    def test_communication_volume_ratios(self):
        from repro.analysis import communication_volume
        from repro.multiset import Multiset
        from repro.runtime import DistributedRunResult

        result = DistributedRunResult(
            final=Multiset(), steps=2, firings=4, migrations=2, messages=8
        )
        volume = communication_volume(result)
        assert volume["migrations_per_firing"] == pytest.approx(0.5)
        assert volume["messages_per_firing"] == pytest.approx(2.0)

    def test_communication_volume_zero_firings(self):
        from repro.analysis import communication_volume
        from repro.multiset import Multiset
        from repro.runtime import DistributedRunResult

        silent = DistributedRunResult(
            final=Multiset(), steps=0, firings=0, migrations=0, messages=0
        )
        assert communication_volume(silent)["messages_per_firing"] == 0.0
        chatty = DistributedRunResult(
            final=Multiset(), steps=1, firings=0, migrations=0, messages=3
        )
        assert communication_volume(chatty)["messages_per_firing"] == float("inf")

    def test_communication_volume_counts_ingest_and_wire_traffic(self):
        """Regression: gateway-injected copies and network frame overhead
        were invisible to the communication report (it predated the ingest
        and socket paths)."""
        from repro.analysis import communication_volume, shard_load_report
        from repro.multiset import Multiset
        from repro.runtime.sharding.coordinator import ShardedRunResult

        result = ShardedRunResult(
            final=Multiset(), steps=3, firings=10, migrations=2, messages=6,
            injected=5, wire_bytes=4096,
        )
        volume = communication_volume(result)
        assert volume["injected"] == pytest.approx(5.0)
        assert volume["wire_bytes"] == pytest.approx(4096.0)
        report = shard_load_report(result)
        assert report.injected == 5
        assert report.wire_bytes == 4096

    def test_communication_volume_defaults_wire_keys_to_zero(self):
        """Results without an ingest path or a wire still report the keys."""
        from repro.analysis import communication_volume
        from repro.multiset import Multiset
        from repro.runtime import DistributedRunResult

        legacy = DistributedRunResult(
            final=Multiset(), steps=2, firings=4, migrations=2, messages=8
        )
        volume = communication_volume(legacy)
        assert volume["injected"] == 0.0
        assert volume["wire_bytes"] == 0.0

    def test_shard_load_report_from_sharded_run(self):
        from repro.analysis import shard_load_report
        from repro.runtime.sharding import ShardCoordinator

        result = ShardCoordinator(sum_reduction(), 4, seed=1).run(
            values_multiset(range(1, 33))
        )
        report = shard_load_report(result)
        assert report.firings == 31
        assert report.firing_balance >= 1.0
        assert report.messages_per_firing > 0.0

    def test_pe_pool_load_imbalance(self):
        from repro.runtime import PEPool

        pool = PEPool(4)
        pool.dispatch(["a", "b", "c", "d"])
        assert pool.load_imbalance() == pytest.approx(1.0)
        skewed = PEPool(4)
        skewed.dispatch(["a"])
        assert skewed.load_imbalance() == pytest.approx(4.0)
        assert PEPool(2).load_imbalance() == 1.0
