"""Tests for the elasticity layer: policy units, routing overrides, live runs.

The integration tests engineer skew deliberately: label groups and element
values are searched so that every group homes to (and every element initially
lands on) shard 0, then a decay workload keeps that shard firing while the
others idle — exactly the hot-label-family scenario the elasticity layer
exists for.
"""

import multiprocessing

import pytest

from repro.api import RuntimeConfig
from repro.gamma.expr import BinOp, Compare, Const, var
from repro.gamma.pattern import ElementTemplate
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import pattern
from repro.multiset import Element, Multiset, home_of
from repro.runtime import (
    DistributedGammaRuntime,
    ElasticityDecision,
    ElasticityPlan,
    ElasticityPolicy,
    StreamingGammaRuntime,
)
from repro.runtime.sharding import RoutingTable, ShardCoordinator
from repro.runtime.sharding.routing import _stable_label_hash

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def _labels_homed_at(shard, num_shards, count, prefix="g"):
    """First ``count`` labels whose group root hashes to ``shard``."""
    found = []
    index = 0
    while len(found) < count:
        label = f"{prefix}{index}"
        if _stable_label_hash(label) % num_shards == shard:
            found.append(label)
        index += 1
    return found


def _values_homed_at(shard, num_shards, label, count, start=1):
    """First ``count`` positive values whose element lands on ``shard``."""
    found = []
    value = start
    while len(found) < count:
        if home_of(Element(value, label, 0), num_shards) == shard:
            found.append(value)
        value += 1
    return found


def decay_program(labels):
    """One single-label decay reaction per label: ``x:L, x>0 → (x-1):L``.

    Single-element matches fire locally on any shard, so the workload keeps
    firing for ``max(value)`` rounds wherever its elements sit — sustained
    load whose *placement* (not matchability) is what elasticity changes.
    """
    reactions = [
        Reaction(
            name=f"Rdecay_{label}",
            replace=[pattern("x", label, "t")],
            branches=[
                Branch(
                    productions=[
                        ElementTemplate(
                            value=BinOp("-", var("x"), Const(1)),
                            label=Const(label),
                            tag=Const(0),
                        )
                    ]
                )
            ],
            guard=Compare(">", var("x"), Const(0)),
        )
        for label in labels
    ]
    return GammaProgram(reactions, name="decay")


def skewed_multiset(labels, num_shards, per_label=4, value=12):
    """Elements of every label group, all initially landing on shard 0."""
    ms = Multiset()
    for label in labels:
        for v in _values_homed_at(0, num_shards, label, per_label, start=value):
            ms.add(Element(v, label, 0))
    return ms


def sequential_reference(program, initial):
    from repro.gamma import run

    return run(program, initial.copy(), config=RuntimeConfig(engine="sequential"))


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="migrate_imbalance"):
            ElasticityPolicy(migrate_imbalance=0.5)
        with pytest.raises(ValueError, match="hysteresis"):
            ElasticityPolicy(split_threshold=4, merge_threshold=4)
        with pytest.raises(ValueError, match="patience"):
            ElasticityPolicy(patience=0)
        with pytest.raises(ValueError, match="cooldown"):
            ElasticityPolicy(cooldown=-1)
        with pytest.raises(ValueError, match="min_shards"):
            ElasticityPolicy(min_shards=3, max_shards=2)
        with pytest.raises(ValueError, match="max_moves_per_round"):
            ElasticityPolicy(max_moves_per_round=0)


class TestPolicyUnits:
    def test_pressure_requires_patience(self):
        policy = ElasticityPolicy(migrate_imbalance=1.5, patience=3)
        skewed = [30, 0, 0]
        assert policy.pressure(skewed) is False
        assert policy.pressure(skewed) is False
        assert policy.pressure(skewed) is True

    def test_pressure_resets_when_balance_returns(self):
        policy = ElasticityPolicy(migrate_imbalance=1.5, patience=2)
        assert policy.pressure([30, 0, 0]) is False
        assert policy.pressure([10, 10, 10]) is False  # streak broken
        assert policy.pressure([30, 0, 0]) is False  # streak restarts at 1
        assert policy.pressure([30, 0, 0]) is True

    def test_cooldown_suppresses_pressure_after_a_plan(self):
        policy = ElasticityPolicy(patience=1, cooldown=2, merge_threshold=0)
        routing = RoutingTable(decay_program(["a"]).reactions, 2)
        assert policy.pressure([20, 0]) is True
        policy.plan(1, [20, 0], [{"a": 20}, {}], routing)
        assert policy.pressure([20, 0]) is False  # cooling
        assert policy.pressure([20, 0]) is False  # cooling
        assert policy.pressure([20, 0]) is True

    def test_plan_split_and_merge_watermarks(self):
        routing = RoutingTable(decay_program(["a"]).reactions, 2)
        split = ElasticityPolicy(patience=1, split_threshold=10, merge_threshold=1)
        plan = split.plan(1, [40, 40], [{"a": 40}, {"a": 40}], routing)
        assert plan == ElasticityPlan(new_shards=4)
        assert split.decisions == [ElasticityDecision(1, "split", "2->4")]

        merge = ElasticityPolicy(patience=1, split_threshold=100, merge_threshold=10)
        plan = merge.plan(2, [3, 2], [{"a": 3}, {"a": 2}], routing)
        assert plan == ElasticityPlan(new_shards=1)
        assert merge.decisions == [ElasticityDecision(2, "merge", "2->1")]

    def test_plan_migrates_hot_group_to_coldest_shard(self):
        labels = _labels_homed_at(0, 4, 3)
        routing = RoutingTable(decay_program(labels).reactions, 4)
        policy = ElasticityPolicy(
            patience=1, migrate_imbalance=1.2, merge_threshold=0, max_moves_per_round=1
        )
        histograms = [{label: 8 for label in labels}, {}, {}, {}]
        plan = policy.plan(3, [24, 0, 0, 0], histograms, routing)
        assert plan is not None and plan.new_shards is None
        assert len(plan.moves) == 1
        root, destination = plan.moves[0]
        assert root in labels
        assert destination != 0
        assert policy.decisions[0].action == "migrate"
        # The override now routes the whole group to its new home.
        assert routing.destination(root) == routing._home[root]  # not yet applied
        routing.assign(root, destination)
        assert routing.destination(root) == destination

    def test_plan_stands_pat_on_wildcard_programs(self):
        wild = Reaction(
            name="Rwild",
            replace=[pattern("x", None, "t")],
            branches=[Branch(productions=[])],
        )
        routing = RoutingTable([wild], 4)
        assert routing.wildcard
        policy = ElasticityPolicy(patience=1, merge_threshold=0)
        assert policy.plan(1, [40, 0, 0, 0], [{}, {}, {}, {}], routing) is None
        assert policy.decisions == []

    def test_identical_observations_make_identical_decisions(self):
        labels = _labels_homed_at(0, 4, 3)
        routing_a = RoutingTable(decay_program(labels).reactions, 4)
        routing_b = RoutingTable(decay_program(labels).reactions, 4)
        histograms = [{label: 6 for label in labels}, {}, {}, {}]
        logs = []
        for routing in (routing_a, routing_b):
            policy = ElasticityPolicy(seed=7, patience=1, merge_threshold=0)
            policy.plan(5, [18, 0, 0, 0], histograms, routing)
            logs.append(policy.decisions)
        assert logs[0] == logs[1] and logs[0]

    def test_reset_rearms_the_policy(self):
        policy = ElasticityPolicy(seed=3, patience=1, merge_threshold=0)
        labels = _labels_homed_at(0, 2, 1)
        routing = RoutingTable(decay_program(labels).reactions, 2)
        policy.plan(1, [9, 0], [{labels[0]: 9}, {}], routing)
        first = list(policy.decisions)
        policy.reset()
        assert policy.decisions == []
        routing2 = RoutingTable(decay_program(labels).reactions, 2)
        policy.plan(1, [9, 0], [{labels[0]: 9}, {}], routing2)
        assert policy.decisions == first


class TestRoutingOverrides:
    def test_assign_rejects_unknown_root_and_bad_shard(self):
        labels = _labels_homed_at(0, 2, 1)
        routing = RoutingTable(decay_program(labels).reactions, 2)
        with pytest.raises(ValueError, match="unknown label group root"):
            routing.assign("nope", 1)
        with pytest.raises(ValueError, match="out of range"):
            routing.assign(labels[0], 2)

    def test_rehome_drops_overrides_and_rescales(self):
        labels = _labels_homed_at(0, 4, 2)
        routing = RoutingTable(decay_program(labels).reactions, 4)
        routing.assign(labels[0], 3)
        assert routing.destination(labels[0]) == 3
        routing.rehome(8)
        assert routing.num_shards == 8
        for label in labels:
            assert routing.destination(label) == _stable_label_hash(label) % 8


class TestElasticRuns:
    def _elastic_coordinator(self, program, policy, shards=4, **kwargs):
        return ShardCoordinator(
            program,
            shards,
            backend="inprocess",
            work_stealing=False,
            elasticity=policy,
            **kwargs,
        )

    # Counts of this run before fixpoint rounds and same-round exchanges
    # existed: elasticity keeps the return-and-re-step round, so they must
    # not move.
    @pytest.mark.parametrize(
        "round_supersteps, expected",
        [(1, (34, 270, 9, 3, [69, 63, 63, 75])), (None, (2, 270, 6, 2, [270, 0, 0, 0]))],
    )
    def test_elastic_rounds_keep_their_counts(self, round_supersteps, expected):
        labels = _labels_homed_at(0, 4, 4)
        policy = ElasticityPolicy(
            patience=1, migrate_imbalance=1.3, cooldown=1, merge_threshold=0
        )
        result = self._elastic_coordinator(
            decay_program(labels), policy, round_supersteps=round_supersteps
        ).run(skewed_multiset(labels, 4, per_label=3, value=16))
        assert (
            result.rounds,
            result.firings,
            result.migrations,
            result.group_migrations,
            result.per_partition_firings,
        ) == expected

    def test_group_migration_spreads_a_hot_shard(self):
        labels = _labels_homed_at(0, 4, 4)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 4, per_label=3, value=16)
        policy = ElasticityPolicy(
            patience=1, migrate_imbalance=1.3, cooldown=1, merge_threshold=0
        )
        # Lock-step rounds: the policy watches the hot shard while it is
        # still firing, superstep by superstep.
        result = self._elastic_coordinator(
            program, policy, round_supersteps=1
        ).run(initial)
        reference = sequential_reference(program, initial)
        assert result.final.counts() == reference.final.counts()
        assert result.group_migrations > 0
        assert any(d.action == "migrate" for d in policy.decisions)
        # Migrated groups fired off shard 0: the hot shard no longer owns
        # every firing.
        assert sum(1 for f in result.per_partition_firings if f > 0) > 1

    def test_split_scales_up_under_load(self):
        labels = _labels_homed_at(0, 2, 2)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 2, per_label=8, value=20)
        policy = ElasticityPolicy(
            patience=1, split_threshold=4, merge_threshold=0, cooldown=0, max_shards=8
        )
        coordinator = self._elastic_coordinator(program, policy, shards=2)
        result = coordinator.run(initial)
        reference = sequential_reference(program, initial)
        assert result.final.counts() == reference.final.counts()
        assert result.scale_events >= 1
        assert coordinator.num_shards > 2
        assert any(d.action == "split" for d in policy.decisions)

    def test_merge_scales_down_when_drained(self):
        labels = _labels_homed_at(0, 4, 1)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 4, per_label=2, value=18)
        policy = ElasticityPolicy(
            patience=1,
            migrate_imbalance=1000.0,  # never migrate: isolate the merge path
            split_threshold=1000,
            merge_threshold=3,
            cooldown=0,
            min_shards=2,
        )
        coordinator = self._elastic_coordinator(program, policy, shards=4)
        result = coordinator.run(initial)
        reference = sequential_reference(program, initial)
        assert result.final.counts() == reference.final.counts()
        assert result.scale_events >= 1
        assert coordinator.num_shards < 4
        assert any(d.action == "merge" for d in policy.decisions)

    def test_fixed_seed_decisions_identical_across_repeats(self):
        labels = _labels_homed_at(0, 4, 4)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 4, per_label=3, value=14)
        policy = ElasticityPolicy(
            seed=11, patience=1, migrate_imbalance=1.3, cooldown=1,
            split_threshold=64, merge_threshold=2,
        )
        coordinator = self._elastic_coordinator(program, policy, shards=4, seed=5)
        runs = []
        for _ in range(3):
            result = coordinator.run(initial)
            runs.append((list(policy.decisions), result.final.counts(),
                         result.scale_events, result.group_migrations))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0]  # the run actually decided something

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork start method")
    def test_backends_make_identical_elastic_decisions(self):
        labels = _labels_homed_at(0, 4, 4)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 4, per_label=3, value=12)
        outcomes = []
        for backend in ("inprocess", "multiprocessing"):
            policy = ElasticityPolicy(
                seed=9, patience=1, migrate_imbalance=1.3, cooldown=1,
                split_threshold=64, merge_threshold=2,
            )
            result = ShardCoordinator(
                program,
                4,
                backend=backend,
                seed=5,
                work_stealing=False,
                elasticity=policy,
            ).run(initial)
            outcomes.append(
                (list(policy.decisions), result.final.counts(),
                 result.scale_events, result.group_migrations)
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork start method")
    def test_multiprocessing_resize_grows_and_shrinks_workers(self):
        labels = _labels_homed_at(0, 2, 2)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 2, per_label=8, value=16)
        policy = ElasticityPolicy(
            patience=1, split_threshold=4, merge_threshold=2, cooldown=0,
            min_shards=1, max_shards=8,
        )
        coordinator = ShardCoordinator(
            program, 2, backend="multiprocessing", work_stealing=False,
            elasticity=policy,
        )
        result = coordinator.run(initial)
        reference = sequential_reference(program, initial)
        assert result.final.counts() == reference.final.counts()
        assert result.scale_events >= 1

    def test_elastic_runtime_through_config_surface(self):
        labels = _labels_homed_at(0, 4, 4)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 4, per_label=3, value=10)
        policy = ElasticityPolicy(patience=1, migrate_imbalance=1.3, merge_threshold=0)
        runtime = DistributedGammaRuntime(
            program,
            config=RuntimeConfig(backend="inprocess", shards=4, elasticity=policy),
        )
        result = runtime.run(initial)
        reference = sequential_reference(program, initial)
        assert result.final.counts() == reference.final.counts()

    def test_streaming_elastic_run_matches_batch_reference(self):
        labels = _labels_homed_at(0, 2, 2)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 2, per_label=4, value=10)
        policy = ElasticityPolicy(
            patience=1, split_threshold=3, merge_threshold=0, cooldown=0, max_shards=8
        )
        runtime = StreamingGammaRuntime(
            program,
            config=RuntimeConfig(
                backend="inprocess", shards=2, seed=3, elasticity=policy
            ),
        )
        injected = [
            Element(v, labels[0], 0)
            for v in _values_homed_at(0, 2, labels[0], 6, start=30)
        ]
        result = runtime.run(initial, schedule=[injected[:3], injected[3:]])
        union = initial.copy()
        for element in injected:
            union.add(element)
        reference = sequential_reference(program, union)
        assert result.final.counts() == reference.final.counts()
        assert result.stable
        assert result.scale_events >= 1

    def test_elasticity_composes_with_recovery(self):
        from repro.runtime import RecoveryManager

        labels = _labels_homed_at(0, 2, 2)
        program = decay_program(labels)
        initial = skewed_multiset(labels, 2, per_label=6, value=12)
        policy = ElasticityPolicy(
            patience=1, split_threshold=4, merge_threshold=0, cooldown=0, max_shards=8
        )
        coordinator = ShardCoordinator(
            program,
            2,
            backend="inprocess",
            work_stealing=False,
            recovery=RecoveryManager(),
            elasticity=policy,
        )
        result = coordinator.run(initial)
        reference = sequential_reference(program, initial)
        assert result.final.counts() == reference.final.counts()
        assert result.scale_events >= 1
