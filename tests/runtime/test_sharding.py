"""Tests for the sharded distributed execution subsystem."""

import multiprocessing
import random

import pytest

from repro.core import dataflow_to_gamma
from repro.frontend import compile_source_to_graph
from repro.gamma import ParallelEngine, run
from repro.gamma.engine import NonTerminationError
from repro.gamma.expr import Const
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import (
    exchange_sort,
    min_element,
    pattern,
    prime_sieve,
    sum_reduction,
    template,
    values_multiset,
)
from repro.multiset import Element, Multiset, hash_partition, partition_counts
from repro.runtime import DistributedGammaRuntime, DistributedRunResult
from repro.runtime.sharding import (
    InProcessBackend,
    QuiescenceDetector,
    RoutingTable,
    ShardCoordinator,
    ShardedRunResult,
    ShardWorker,
)
from repro.workloads import ExpressionSpec, random_expression_graph, triangular
from repro.api import RuntimeConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def two_label_program():
    """Two disjoint single-label reactions plus one joining both labels."""
    ra = Reaction(
        name="Ra",
        replace=[pattern("x", "a", "t1"), pattern("y", "a", "t2")],
        branches=[Branch(productions=[template("x", "a", Const(0))])],
    )
    rb = Reaction(
        name="Rb",
        replace=[pattern("x", "b", "t1"), pattern("y", "b", "t2")],
        branches=[Branch(productions=[template("x", "b", Const(0))])],
    )
    return GammaProgram([ra, rb], name="two_label")


def joined_program():
    """One reaction consuming labels c and d together (merged footprint)."""
    rj = Reaction(
        name="Rj",
        replace=[pattern("x", "c", "t1"), pattern("y", "d", "t2")],
        branches=[Branch(productions=[template("x", "c", Const(0))])],
    )
    return GammaProgram([rj], name="joined")


class TestPartitioning:
    def test_partition_counts_covers_multiset(self):
        ms = Multiset([(i, "x") for i in range(20)])
        batches = partition_counts(ms, 4)
        total = sum(count for batch in batches for _, count in batch)
        assert total == 20

    def test_hash_partition_union_roundtrip(self):
        ms = Multiset([(i % 5, "x") for i in range(25)])
        parts = hash_partition(ms, 3)
        union = Multiset()
        for part in parts:
            union = union + part
        assert union == ms

    def test_hash_partition_agrees_with_home_of(self):
        from repro.multiset import home_of

        elements = [Element(i, "x", 0) for i in range(32)]
        parts = hash_partition(Multiset(elements), 4)
        for index, part in enumerate(parts):
            for element in part.distinct():
                assert home_of(element, 4) == index

    def test_partition_pairs_agrees_with_home_of(self):
        from repro.multiset import home_of, partition_pairs

        pairs = [(Element(i, "x", 0), 1 + i % 3) for i in range(24)]
        batches = partition_pairs(pairs, 4)
        for home, batch in enumerate(batches):
            for element, _ in batch:
                assert home_of(element, 4) == home
        flattened = [pair for batch in batches for pair in batch]
        assert sorted(flattened, key=lambda p: p[0].value) == pairs

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_counts(Multiset(), 0)
        with pytest.raises(ValueError):
            from repro.multiset import partition_pairs

            partition_pairs([], 0)


class TestRoutingTable:
    def test_single_label_groups(self):
        table = RoutingTable(two_label_program().reactions, 4)
        assert not table.wildcard
        assert table.groups.keys() == {"a", "b"}
        assert table.is_routable("a") and table.is_routable("b")
        assert table.destination("a") in range(4)

    def test_joined_footprints_share_a_home(self):
        table = RoutingTable(joined_program().reactions, 8)
        assert table.groups == {"c": frozenset({"c", "d"})}
        assert table.destination("c") == table.destination("d")

    def test_inert_labels_are_not_routed(self):
        table = RoutingTable(min_element().reactions, 4)
        assert table.destination("not_consumed_anywhere") is None
        assert not table.is_routable("inert")

    def test_destinations_are_stable_across_tables(self):
        reactions = two_label_program().reactions
        first = RoutingTable(reactions, 4)
        second = RoutingTable(reactions, 4)
        assert first.destination("a") == second.destination("a")
        assert first.destination("b") == second.destination("b")

    def test_wildcard_routes_everything_to_one_shard(self):
        from repro.gamma.expr import Var

        from repro.gamma.pattern import ElementPattern, ElementTemplate

        wildcard = Reaction(
            name="Rw",
            replace=[
                ElementPattern(value=Var("x"), label=Var("l"), tag=Var("t")),
            ],
            branches=[
                Branch(
                    productions=[
                        ElementTemplate(value=Var("x"), label=Var("l"), tag=Var("t"))
                    ]
                )
            ],
        )
        table = RoutingTable([wildcard], 4)
        assert table.wildcard
        gather = table.destination("anything")
        assert table.destination("else") == gather
        assert table.is_routable("whatever")

    def test_migration_plan_co_locates_labels(self):
        table = RoutingTable(two_label_program().reactions, 2)
        home_a = table.destination("a")
        counts = [{"a": 3}, {"a": 2}]
        plan = table.migration_plan(counts)
        assert len(plan) == 1
        (move,) = plan
        assert move.source == 1 - home_a
        assert move.destination == home_a
        assert move.labels == ("a",)

    def test_empty_plan_when_co_located(self):
        table = RoutingTable(two_label_program().reactions, 2)
        counts = [{}, {}]
        counts[table.destination("a")]["a"] = 5
        counts[table.destination("b")]["b"] = 2
        assert table.migration_plan(counts) == []

    def test_plan_ignores_inert_and_zero_counts(self):
        table = RoutingTable(two_label_program().reactions, 2)
        counts = [{"inert": 9, "a": 0}, {"inert": 1}]
        assert table.migration_plan(counts) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            RoutingTable(min_element().reactions, 0)


class TestQuiescenceDetector:
    def test_initially_not_quiescent(self):
        detector = QuiescenceDetector(2)
        assert not detector.check(plan_empty=True)

    def test_all_stable_and_empty_plan_is_quiescent(self):
        detector = QuiescenceDetector(2)
        detector.record_local(0, True)
        detector.record_local(1, True)
        assert detector.check(plan_empty=True)
        assert not detector.check(plan_empty=False)

    def test_in_flight_migrations_block_quiescence(self):
        detector = QuiescenceDetector(2)
        detector.record_local(0, True)
        detector.record_local(1, True)
        detector.migrations_started(3)
        assert detector.in_flight == 3
        assert not detector.check(plan_empty=True)
        detector.migrations_delivered(1, 3)
        assert detector.in_flight == 0

    def test_delivery_invalidates_receiver_stability(self):
        detector = QuiescenceDetector(2)
        detector.record_local(0, True)
        detector.record_local(1, True)
        detector.migrations_started(2)
        detector.migrations_delivered(1, 2)
        # Shard 1 just received elements: phase 1 must not hold.
        assert not detector.check(plan_empty=True)
        detector.record_local(1, True)
        assert detector.check(plan_empty=True)

    def test_over_delivery_rejected(self):
        detector = QuiescenceDetector(1)
        with pytest.raises(ValueError):
            detector.migrations_delivered(0, 1)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            QuiescenceDetector(0)


class TestShardWorker:
    def test_local_supersteps_reach_local_fixpoint(self):
        program = sum_reduction()
        worker = ShardWorker(0, program.reactions)
        worker.ingest([(Element(i, "x", 0), 1) for i in range(1, 9)])
        report = worker.run_local()
        assert report.stable
        assert report.fired == 7
        assert report.size == 1
        assert worker.multiset.values_with_label("x") == [36]
        worker.close()

    def test_superstep_cap_reports_unstable(self):
        program = sum_reduction()
        worker = ShardWorker(0, program.reactions)
        worker.ingest([(Element(i, "x", 0), 1) for i in range(1, 9)])
        report = worker.run_local(max_supersteps=1)
        assert report.supersteps == 1
        assert not report.stable
        worker.close()

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("budget", [1, 2, 3, 7])
    def test_budget_caps_firings_per_superstep(self, budget, seed):
        # 12 copies per value: matches carry multiplicity, and the budget
        # caps what a superstep *fires*, not how many matches it lists.
        worker = ShardWorker(0, min_element().reactions, seed=seed)
        worker.ingest([(Element(v, "x", 0), 12) for v in (1, 2, 3, 4)])
        report = worker.run_local(max_supersteps=1, budget=budget)
        while not report.stable:
            assert 1 <= report.fired <= budget
            report = worker.run_local(max_supersteps=1, budget=budget)
        assert worker.firings == 36
        assert worker.multiset == Multiset([(1, "x")] * 12)
        worker.close()

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_is_refused(self, budget):
        # Regression: budget=0 used to report an unstable partition stable
        # (fired=0), and a negative budget ran unbounded.
        worker = ShardWorker(0, min_element().reactions)
        worker.ingest([(Element(v, "x", 0), 1) for v in (3, 1, 2)])
        with pytest.raises(ValueError, match="budget"):
            worker.run_local(budget=budget)
        assert worker.multiset == Multiset([(3, "x"), (1, "x"), (2, "x")])
        assert worker.run_local(max_supersteps=1, budget=1).fired == 1
        worker.close()

    def test_fired_counts_copies_not_matches(self):
        worker = ShardWorker(0, min_element().reactions)
        worker.ingest([(Element(1, "x", 0), 40), (Element(2, "x", 0), 40)])
        report = worker.run_local()
        assert (report.fired, report.supersteps) == (40, 1)
        assert worker.firings == 40
        worker.close()

    def test_extract_some_respects_routing_and_limit(self):
        program = two_label_program()
        routing = RoutingTable(program.reactions, 2)
        worker = ShardWorker(0, program.reactions)
        worker.ingest([(Element(1, "a", 0), 2), (Element(2, "inert", 0), 5)])
        pairs = worker.extract_some(1, routing)
        assert pairs == [(Element(1, "a", 0), 1)]
        assert worker.multiset.count(Element(1, "a", 0)) == 1
        # Inert elements are never donated.
        assert worker.extract_some(10, routing) == [(Element(1, "a", 0), 1)]
        assert worker.extract_some(10, routing) == []
        worker.close()


class TestShardCoordinator:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_sequential_engine(self, shards):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))
        reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
        result = ShardCoordinator(program, shards, seed=3).run(initial)
        assert result.final == reference.final
        assert isinstance(result, ShardedRunResult)
        assert isinstance(result, DistributedRunResult)

    def test_exchange_sort_multi_label(self):
        program = exchange_sort()
        from repro.gamma.stdlib import indexed_multiset

        initial = indexed_multiset([5, 3, 8, 1, 9, 2])
        reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
        result = ShardCoordinator(program, 3).run(initial)
        assert result.final == reference.final

    def test_prime_sieve(self):
        program = prime_sieve()
        initial = values_multiset(range(2, 40))
        result = ShardCoordinator(program, 4, seed=1).run(initial)
        assert sorted(result.final.values_with_label("x")) == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_accounting_consistency(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 33))
        result = ShardCoordinator(program, 4, seed=5).run(initial)
        assert sum(result.per_partition_firings) == result.firings == 31
        assert result.rounds == result.steps
        assert result.supersteps >= 1
        assert len(result.final_shard_sizes) == 4
        assert sum(result.final_shard_sizes) == len(result.final) == 1
        assert result.backend == "inprocess"

    def test_already_stable_initial_is_quiescent_immediately(self):
        program = min_element()
        initial = values_multiset([7])
        result = ShardCoordinator(program, 4).run(initial)
        assert result.firings == 0
        assert result.final == initial
        assert result.communication_ratio == float("inf")  # messages, no firings

    def test_empty_initial(self):
        result = ShardCoordinator(min_element(), 2).run(Multiset())
        assert result.firings == 0
        assert len(result.final) == 0

    def test_seeded_runs_are_reproducible(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 65))
        first = ShardCoordinator(program, 4, seed=11).run(initial)
        second = ShardCoordinator(program, 4, seed=11).run(initial)
        assert first.final == second.final
        assert first.firings == second.firings
        assert first.rounds == second.rounds
        assert first.migrations == second.migrations
        assert first.per_partition_firings == second.per_partition_firings

    def test_work_stealing_rebalances_skewed_load(self):
        # All elements share one value, so the whole multiset hash-lands on a
        # single shard; stealing must spread work to the starving shards.
        program = sum_reduction()
        initial = Multiset([(5, "x")] * 64)
        # Stealing is opt-in and observes starvation between lock-step rounds.
        balanced = ShardCoordinator(
            program, 4, superstep_budget=2, work_stealing=True, round_supersteps=1
        ).run(initial)
        assert balanced.steals > 0
        assert balanced.final == run(program, initial, config=RuntimeConfig(engine="sequential")).final
        disabled = ShardCoordinator(
            program, 4, superstep_budget=2, work_stealing=False, round_supersteps=1
        ).run(initial)
        assert disabled.steals == 0
        assert disabled.final == balanced.final

    def test_superstep_budget_caps_batches(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 33))
        result = ShardCoordinator(program, 1, superstep_budget=4).run(initial)
        assert result.supersteps >= 8
        assert result.final == run(program, initial, config=RuntimeConfig(engine="sequential")).final

    def test_interpreted_mode(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 17))
        result = ShardCoordinator(program, 2, compiled=False).run(initial)
        assert result.final == run(program, initial, config=RuntimeConfig(engine="sequential")).final

    def test_divergent_program_raises(self):
        grow = Reaction(
            name="Rgrow",
            replace=[pattern("x", "x", "t")],
            branches=[
                Branch(
                    productions=[
                        template("x", "x", Const(0)),
                        template("x", "x", Const(0)),
                    ]
                )
            ],
        )
        program = GammaProgram([grow], name="diverge")
        with pytest.raises(NonTerminationError):
            ShardCoordinator(program, 2, max_supersteps=16).run(
                values_multiset([1, 2, 3])
            )

    def test_missing_initial_rejected(self):
        with pytest.raises(ValueError):
            ShardCoordinator(min_element(), 2).run(None)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ShardCoordinator(min_element(), 0)
        with pytest.raises(ValueError):
            ShardCoordinator(min_element(), 2, backend="carrier-pigeon")
        with pytest.raises(ValueError):
            ShardCoordinator(min_element(), 2, steal_threshold=0.5)
        with pytest.raises(ValueError):
            ShardCoordinator(min_element(), 2, max_rounds=0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_superstep_budget_rejected(self, budget):
        with pytest.raises(
            ValueError,
            match=r"superstep_budget must be positive \(or None for maximal batches\)",
        ):
            ShardCoordinator(sum_reduction(), 2, superstep_budget=budget)


class TestInProcessBackendInternals:
    def test_transfer_batches_report_in_flight_to_detector(self):
        program = two_label_program()
        routing = RoutingTable(program.reactions, 2)
        backend = InProcessBackend(program.reactions, 2, routing)
        detector = QuiescenceDetector(2)
        home = routing.destination("a")
        away = 1 - home
        backend.workers[away].ingest([(Element(1, "a", 0), 3)])
        plan = routing.migration_plan(backend.label_counts())
        moved, batches = backend.execute_transfers(plan, detector)
        assert (moved, batches) == (3, 1)
        assert detector.in_flight == 0
        assert backend.sizes()[home] == 3
        backend.stop()


class TestDistributedRuntimeBackends:
    # ``backend`` is the shared parametrized fixture from tests/conftest.py:
    # every distributed backend (inprocess, multiprocessing) sweeps
    # through this test without a module-local list.
    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_results_match_centralized_execution(self, backend, partitions):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))
        distributed = DistributedGammaRuntime(program, partitions, config=RuntimeConfig(seed=3, backend=backend)).run(initial)
        reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
        assert distributed.final == reference.final
        assert distributed.firings == 39

    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_one_firing_per_device_cost_model(self, backend, partitions):
        # E9(d)'s cost model on every backend: with one firing per shard per
        # superstep and one superstep per round, a round fires at most once
        # per partition, and every backend makes the in-process decisions.
        program = sum_reduction()
        initial = values_multiset(range(1, 25))

        def profile(name):
            return DistributedGammaRuntime(
                program,
                partitions,
                firings_per_worker_step=1,
                config=RuntimeConfig(backend=name, seed=2),
            ).run(initial)

        result = profile(backend)
        assert result.backend == backend
        assert result.final == run(program, initial).final
        assert result.firings == 23
        assert result.supersteps >= 23
        assert result.steps * partitions >= 23
        reference = profile("inprocess")
        assert (result.steps, result.messages, result.migrations) == (
            reference.steps,
            reference.messages,
            reference.migrations,
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            DistributedGammaRuntime(sum_reduction(), 2, config=RuntimeConfig(backend="nope"))

    def test_sharded_result_type(self):
        result = DistributedGammaRuntime(sum_reduction(), 2, config=RuntimeConfig(backend="inprocess")).run(values_multiset(range(1, 9)))
        assert isinstance(result, ShardedRunResult)
        assert result.backend == "inprocess"

    def test_explicit_firing_cap_respected(self):
        result = DistributedGammaRuntime(sum_reduction(), 1, firings_per_worker_step=4, config=RuntimeConfig(backend="inprocess")).run(values_multiset(range(1, 33)))
        assert result.supersteps >= 8

    @pytest.mark.parametrize("cap", [1, 2, 3, 7])
    def test_firing_cap_counts_copies(self, cap):
        initial = values_multiset([v for v in (1, 2, 3, 4) for _ in range(12)])
        result = DistributedGammaRuntime(
            min_element(), 1, firings_per_worker_step=cap
        ).run(initial)
        assert result.firings == 36
        assert result.steps >= -(-36 // cap)  # at most ``cap`` firings per step

    def test_explicit_firing_cap_of_one_is_honored(self):
        # A cap of 1 reproduces the one-firing-per-superstep cost model
        # (31 firings -> >= 31 supersteps); the unset default extracts
        # maximal batches.
        capped = DistributedGammaRuntime(sum_reduction(), 1, firings_per_worker_step=1, config=RuntimeConfig(backend="inprocess")).run(values_multiset(range(1, 33)))
        assert capped.supersteps >= 31
        unset = DistributedGammaRuntime(sum_reduction(), 1, config=RuntimeConfig(backend="inprocess")).run(values_multiset(range(1, 33)))
        assert unset.supersteps < capped.supersteps
        assert unset.final == capped.final


class TestMultiplicityCountGate:
    """Deterministic, machine-independent form of the shard_inproc claim:
    matching cost follows distinct elements, so 40 copies per value must not
    cost 40 barrier rounds.  Same input shape and config as the e2e workload
    (one-copy collectors needed ~122 rounds, resp. 17-19 supersteps)."""

    @staticmethod
    def values(size, seed):
        rng = random.Random(seed)
        return [rng.randint(1, 1000) for _ in range(size)]

    @pytest.mark.parametrize("input_seed", [7, 11])
    def test_shard_inproc_rounds(self, input_seed):
        values = self.values(40_000, input_seed)
        result = DistributedGammaRuntime(
            min_element(), config=RuntimeConfig(backend="inprocess", shards=4, seed=3)
        ).run(values_multiset(values))
        assert result.values_with_label("x") == [min(values)] * values.count(min(values))
        assert result.firings == len(values) - values.count(min(values))
        assert sum(result.per_partition_firings) == result.firings
        assert result.rounds <= 4

    @pytest.mark.parametrize("input_seed", [7, 11])
    @pytest.mark.parametrize("engine_seed", [None, 3])
    def test_parallel_engine_supersteps(self, input_seed, engine_seed):
        values = self.values(10_000, input_seed)
        result = ParallelEngine(seed=engine_seed).run(
            min_element(), values_multiset(values)
        )
        assert result.firings == len(values) - values.count(min(values))
        assert result.steps <= 14


class TestConvertedProgramsOnShards:
    """The paper's use case on shards, counted rather than timed: a converted
    dataflow program runs on 4 shards in a handful of barrier rounds instead
    of one round per local superstep."""

    @staticmethod
    def run_both(graph):
        conv = dataflow_to_gamma(graph)
        sequential = run(
            conv.program, conv.initial, config=RuntimeConfig(engine="sequential")
        )
        sharded = ShardCoordinator(conv.program, 4, backend="inprocess", seed=3).run(
            conv.initial
        )
        assert sharded.final == sequential.final
        assert sharded.firings == sequential.firings
        return sharded

    def test_triangular_loop(self):
        kernel = triangular(1000)
        result = self.run_both(compile_source_to_graph(kernel.source, name=kernel.name))
        assert result.rounds <= 4
        assert result.migrations <= 2 * result.firings

    def test_expression_dag(self):
        graph = random_expression_graph(
            ExpressionSpec(num_inputs=128, num_operations=512, seed=0)
        )
        result = self.run_both(graph)
        assert result.rounds <= 12


class TestSameRoundVerdict:
    """When every shard reports stable, the round plans its exchange (and
    reaches its verdict) from the histograms on the step replies."""

    def test_single_shard_finishes_in_one_round(self):
        values = [9, 4, 11, 2, 6, 13, 2]
        result = ShardCoordinator(min_element(), 1).run(values_multiset(values))
        assert result.values_with_label("x") == [2, 2]
        assert result.rounds == 1
        assert result.final_shard_sizes == [2]

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @pytest.mark.parametrize(
        "program, values",
        [(sum_reduction, range(1, 41)), (prime_sieve, range(2, 60))],
    )
    @pytest.mark.parametrize(
        "options",
        # The low threshold makes sum_reduction steal too, so the stealing
        # row moves batches through extract_some on every pipe.
        [{}, {"work_stealing": True, "round_supersteps": 1, "steal_threshold": 1.0}],
        ids=["defaults", "stealing"],
    )
    def test_backends_decide_identically_under_defaults(
        self, program, values, options
    ):
        program = program()
        initial = values_multiset(values)

        def decisions(backend):
            result = ShardCoordinator(
                program, 3, backend=backend, seed=7, **options
            ).run(initial.copy())
            return (
                result.final,
                result.rounds,
                result.firings,
                result.migrations,
                result.steals,
                result.per_partition_firings,
            )

        local = decisions("inprocess")
        if options:
            assert local[4] > 0  # the row must actually steal
        assert decisions("multiprocessing") == local
        assert decisions("network") == local

    # Counts of the same configurations before fixpoint rounds and same-round
    # exchanges existed: stealing keeps the return-and-re-step round, so they
    # must not move.
    @pytest.mark.parametrize(
        "round_supersteps, expected",
        [(1, (16, 63, 43, 5, [14, 23, 12, 14])), (None, (3, 63, 1, 0, [0, 63, 0, 0]))],
    )
    def test_work_stealing_keeps_its_rounds(self, round_supersteps, expected):
        result = ShardCoordinator(
            sum_reduction(),
            4,
            seed=7,
            superstep_budget=2,
            work_stealing=True,
            round_supersteps=round_supersteps,
        ).run(Multiset([(5, "x")] * 64))
        assert (
            result.rounds,
            result.firings,
            result.migrations,
            result.steals,
            result.per_partition_firings,
        ) == expected

    def test_lock_step_rounds_keep_their_schedule(self):
        # With one superstep per round a shard is stable only when it fired
        # nothing, so the same-round exchange never triggers early.
        result = ShardCoordinator(
            min_element(), 4, seed=7, round_supersteps=1
        ).run(values_multiset(range(1, 41)))
        assert (
            result.rounds,
            result.firings,
            result.migrations,
            result.per_partition_firings,
        ) == (8, 39, 3, [9, 6, 11, 13])


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
class TestMultiprocessingBackendFailurePaths:
    """Failure handling of the process-backed shard protocol.

    The happy paths are covered by the coordinator/conformance tests; these
    pin both sides of the failure contract.  *Unsupervised* (no
    :class:`RecoveryManager`): a dead or erroring worker must fail loudly —
    detected within the liveness poll interval, not the full reply timeout —
    and tear queues and processes down instead of deadlocking the
    coordinator.  *Supervised*: the same deaths surface as ``WorkerDied``
    and the session recovers to the correct stable multiset (the PR 5
    "loud RuntimeError" crash surface upgraded to recovery assertions).
    """

    @staticmethod
    def _make_backend(shards=2):
        program = sum_reduction()
        routing = RoutingTable(program.reactions, shards)
        from repro.runtime.sharding.mp import MultiprocessingBackend

        return MultiprocessingBackend(program.reactions, shards, routing)

    def test_worker_killed_mid_round_raises_and_tears_down(self):
        import time

        backend = self._make_backend()
        victim = backend._processes[0]
        victim.terminate()
        victim.join(timeout=10)
        assert not victim.is_alive()
        # Liveness polling detects the death within the poll interval — no
        # timeout shrink needed, the 300s reply timeout never comes into it.
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="died awaiting"):
            backend.superstep_all()
        assert time.monotonic() - began < 10
        # The failure tore everything down: every process joined, another
        # stop is a no-op instead of hanging on dead queues.
        assert all(not process.is_alive() for process in backend._processes)
        backend.stop()

    def test_unresponsive_live_worker_still_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_TIMEOUT", "0.3")
        backend = self._make_backend()
        # The worker sleeps past the (shrunken) reply timeout but stays
        # alive: polling must report *unresponsive*, not death.
        backend.delay(0, 2.0)
        with pytest.raises(RuntimeError, match="unresponsive.*alive"):
            backend.superstep_all()
        backend.stop()

    def test_delayed_reply_is_not_mistaken_for_death(self):
        backend = self._make_backend()
        try:
            # A reply slower than many liveness polls (but within the reply
            # timeout) arrives normally — slow is not dead.
            backend.delay(0, 0.5)
            reports = backend.superstep_all()
            assert len(reports) == 2
        finally:
            backend.stop()

    def test_worker_error_reply_raises_and_stops_cleanly(self):
        backend = self._make_backend()
        # An unknown command makes the worker raise, which it reports as an
        # ("error", traceback) reply before exiting.
        backend._send(0, "explode")
        with pytest.raises(RuntimeError, match="worker failed"):
            backend._recv(0, "report")
        assert backend._stopped
        assert all(not process.is_alive() for process in backend._processes)
        backend.stop()  # idempotent after the error-path teardown

    def test_queue_teardown_after_exception_is_idempotent(self):
        backend = self._make_backend()
        backend._send(1, "explode")
        with pytest.raises(RuntimeError):
            backend._recv(1, "labels")
        # Queues are closed; further protocol use fails fast rather than
        # blocking forever on a stopped backend.
        backend.stop()
        backend.stop()

    def test_stop_idempotent_after_worker_death(self):
        backend = self._make_backend()
        backend._processes[0].kill()
        backend._processes[0].join(timeout=10)
        # stop() must reclaim the survivors and tolerate the dead worker's
        # broken channel — twice.
        backend.stop()
        backend.stop()
        assert all(not process.is_alive() for process in backend._processes)

    def test_coordinator_surfaces_worker_failure(self):
        program = sum_reduction()
        coordinator = ShardCoordinator(program, 2, backend="multiprocessing")
        session = coordinator.start(values_multiset(range(1, 9)))
        try:
            backend = session.backend
            backend._processes[1].terminate()
            backend._processes[1].join(timeout=10)
            with pytest.raises(RuntimeError, match="died awaiting"):
                session.drive()
        finally:
            session.close()

    # -- supervised: death recovers instead of failing ---------------------------
    def test_killed_worker_recovers_to_sequential_result(self):
        from repro.runtime import RecoveryManager

        program = sum_reduction()
        initial = values_multiset(range(1, 33))
        reference = run(program, initial.copy(), config=RuntimeConfig(engine="sequential")).final
        coordinator = ShardCoordinator(
            program,
            2,
            backend="multiprocessing",
            recovery=RecoveryManager(),
            checkpoint_rounds=1,
        )
        session = coordinator.start(initial.copy())
        try:
            session.backend._processes[0].kill()
            session.drive()
            result = session.result()
        finally:
            session.close()
        assert result.final == reference
        assert result.recoveries >= 1
        assert session.recovery_seconds

    def test_supervised_death_respawns_worker_process(self):
        from repro.runtime import RecoveryManager

        program = sum_reduction()
        coordinator = ShardCoordinator(
            program, 2, backend="multiprocessing", recovery=RecoveryManager()
        )
        session = coordinator.start(values_multiset(range(1, 17)))
        try:
            old_pid = session.backend._processes[1].pid
            session.backend._processes[1].kill()
            session.drive()
            new_pid = session.backend._processes[1].pid
            assert session.backend._processes[1].is_alive()
            assert new_pid != old_pid
        finally:
            session.close()

    def test_recovery_budget_exhaustion_raises(self):
        from repro.runtime import RecoveryManager, WorkerDied

        manager = RecoveryManager(max_recoveries=1)
        coordinator = ShardCoordinator(
            sum_reduction(), 2, backend="multiprocessing", recovery=manager
        )
        session = coordinator.start(values_multiset(range(1, 9)))
        try:
            session._recover_from(WorkerDied(0, "test"))
            with pytest.raises(RuntimeError, match="recovery budget exhausted"):
                session._recover_from(WorkerDied(0, "test"))
        finally:
            session.close()


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
class TestMultiprocessingBackend:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_matches_sequential_engine(self, shards):
        program = sum_reduction()
        initial = values_multiset(range(1, 33))
        reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
        result = ShardCoordinator(
            program, shards, backend="multiprocessing", seed=3
        ).run(initial)
        assert result.final == reference.final
        assert result.backend == "multiprocessing"

    def test_agrees_with_inprocess_decision_for_decision(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))
        local = ShardCoordinator(program, 4, seed=7).run(initial)
        remote = ShardCoordinator(
            program, 4, backend="multiprocessing", seed=7
        ).run(initial)
        assert local.final == remote.final
        assert local.firings == remote.firings
        assert local.rounds == remote.rounds
        assert local.migrations == remote.migrations
        assert local.per_partition_firings == remote.per_partition_firings

    def test_runtime_front_door(self):
        program = min_element()
        initial = values_multiset([9, 4, 11, 2, 6, 13])
        result = DistributedGammaRuntime(program, 3, config=RuntimeConfig(seed=0, backend="multiprocessing")).run(initial)
        assert result.values_with_label("x") == [2]
