"""Tests for the distributed (IoT-style) multiset runtime front door."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gamma import run
from repro.gamma.stdlib import min_element, prime_sieve, sum_reduction, values_multiset
from repro.multiset import Element, Multiset, home_of
from repro.runtime import (
    DistributedGammaRuntime,
    DistributedRunResult,
    RecoveryManager,
    ShardedRunResult,
)
from repro.runtime.sharding.coordinator import SHARD_BACKENDS
from repro.api import RuntimeConfig


_PLACEMENT_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.multiset import Element, home_of

homes = [
    home_of(Element(value, label, tag), 5)
    for value in (0, 1, -3, 7, "s", True, 2.5)
    for label in ("x", "B13", "")
    for tag in (0, 1, 9)
]
print(",".join(map(str, homes)))
"""


class TestStablePlacement:
    def test_home_of_uses_stable_hash(self):
        e = Element(7, "x", 2)
        assert home_of(e, 4) == e.stable_hash() % 4

    def test_stable_hash_distinguishes_fields(self):
        assert Element(1, "x", 0).stable_hash() != Element(2, "x", 0).stable_hash()
        assert Element(1, "x", 0).stable_hash() != Element(1, "y", 0).stable_hash()
        assert Element(1, "x", 0).stable_hash() != Element(1, "x", 1).stable_hash()

    def test_equal_elements_hash_equal_across_numeric_types(self):
        # hash/eq contract: 1 == True == 1.0, so all three must share a home
        # (builtin hash() guaranteed this; the stable digest must too).
        variants = [Element(1, "x", 0), Element(True, "x", 0), Element(1.0, "x", 0)]
        assert variants[0] == variants[1] == variants[2]
        hashes = {e.stable_hash() for e in variants}
        assert len(hashes) == 1
        assert Element(0, "x", 0).stable_hash() == Element(False, "x", 0).stable_hash()
        # Non-integral floats keep their own identity.
        assert Element(1.5, "x", 0).stable_hash() != Element(1, "x", 0).stable_hash()

    def test_placement_identical_across_hash_seeds(self):
        """Partitioning must not depend on PYTHONHASHSEED (process-stable).

        Runs the same placement in two subprocesses with different hash seeds
        — the regression this pins: builtin ``hash()`` on string labels is
        salted per process, so hash-based homes differed between nodes.
        """
        src = str(Path(__file__).resolve().parents[2] / "src")
        script = _PLACEMENT_SCRIPT.format(src=src)
        outputs = []
        for hash_seed in ("0", "1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1] == outputs[2]
        # ... and the in-process placement agrees with the subprocesses.
        local = ",".join(
            str(home_of(Element(value, label, tag), 5))
            for value in (0, 1, -3, 7, "s", True, 2.5)
            for label in ("x", "B13", "")
            for tag in (0, 1, 9)
        )
        assert local == outputs[0]

    def test_placement_spreads_over_partitions(self):
        homes = {home_of(Element(i, "x", 0), 4) for i in range(64)}
        assert homes == {0, 1, 2, 3}


class TestDistributedRuntime:
    @pytest.mark.parametrize("partitions", [1, 2, 4, 8])
    def test_results_match_centralized_execution(self, partitions):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))
        distributed = DistributedGammaRuntime(program, partitions, config=RuntimeConfig(seed=3)).run(initial)
        reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
        assert distributed.final == reference.final

    def test_min_element_distributed(self):
        program = min_element()
        initial = values_multiset([9, 4, 11, 2, 6, 13])
        result = DistributedGammaRuntime(program, 3, config=RuntimeConfig(seed=0)).run(initial)
        assert result.values_with_label("x") == [2]

    def test_sieve_distributed(self):
        program = prime_sieve()
        initial = values_multiset(range(2, 25))
        result = DistributedGammaRuntime(program, 4, config=RuntimeConfig(seed=1)).run(initial)
        assert sorted(result.values_with_label("x")) == [2, 3, 5, 7, 11, 13, 17, 19, 23]

    @staticmethod
    def _one_firing_per_device(partitions):
        # E9(d)'s cost model: each device fires at most once per superstep.
        return DistributedGammaRuntime(
            sum_reduction(),
            partitions,
            firings_per_worker_step=1,
            config=RuntimeConfig(seed=2),
        ).run(values_multiset(range(1, 65)))

    def test_communication_grows_with_partitions(self):
        single = self._one_firing_per_device(1)
        many = self._one_firing_per_device(8)
        assert many.messages > single.messages
        assert many.migrations >= single.migrations
        assert single.firings == many.firings == 63

    def test_steps_decrease_with_partitions(self):
        single = self._one_firing_per_device(1)
        many = self._one_firing_per_device(8)
        assert many.steps < single.steps

    def test_per_partition_accounting(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 17))
        result = DistributedGammaRuntime(program, 4, config=RuntimeConfig(seed=5)).run(initial)
        assert sum(result.per_partition_firings) == result.firings
        assert result.communication_ratio >= 0.0

    def test_missing_initial_rejected(self):
        with pytest.raises(ValueError):
            DistributedGammaRuntime(sum_reduction(), 2).run(None)


class TestCommunicationRatio:
    def test_messages_per_firing(self):
        result = DistributedRunResult(
            final=Multiset(), steps=3, firings=4, migrations=1, messages=10
        )
        assert result.communication_ratio == 2.5

    def test_zero_firings_with_messages_is_infinite(self):
        # An already-stable run exchanged termination-detection messages but
        # fired nothing: locality is infinitely bad, not perfect (the old
        # semantics returned 0.0 here).
        result = DistributedRunResult(
            final=Multiset(), steps=1, firings=0, migrations=0, messages=4
        )
        assert result.communication_ratio == float("inf")

    def test_zero_firings_zero_messages_is_zero(self):
        result = DistributedRunResult(
            final=Multiset(), steps=0, firings=0, migrations=0, messages=0
        )
        assert result.communication_ratio == 0.0

    def test_stable_initial_run_reports_infinite_ratio(self):
        program = min_element()
        result = DistributedGammaRuntime(program, 2, config=RuntimeConfig(seed=0)).run(
            values_multiset([3])
        )
        assert result.firings == 0 and result.messages > 0
        assert result.communication_ratio == float("inf")


class TestFiringBudget:
    def test_explicit_none_is_maximal_batches(self):
        initial = values_multiset(range(1, 33))
        explicit = DistributedGammaRuntime(sum_reduction(), 2, firings_per_worker_step=None).run(initial)
        unset = DistributedGammaRuntime(sum_reduction(), 2).run(initial)
        assert explicit.final == unset.final
        assert (explicit.steps, explicit.firings) == (unset.steps, unset.firings)

    @pytest.mark.parametrize("partitions", [1, 2, 4])
    @pytest.mark.parametrize("budget", [1, 4, None])
    def test_results_match_centralized_execution(self, budget, partitions):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))
        distributed = DistributedGammaRuntime(
            program,
            partitions,
            firings_per_worker_step=budget,
            config=RuntimeConfig(seed=3),
        ).run(initial)
        reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
        assert distributed.final == reference.final
        assert distributed.firings == 39
        if budget is not None:
            # Every local superstep fires at most ``budget`` times.
            assert distributed.supersteps * budget >= 39

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="superstep_budget must be positive"):
            DistributedGammaRuntime(
                sum_reduction(),
                2,
                firings_per_worker_step=budget,
                config=RuntimeConfig(backend="inprocess"),
            )


class TestDefaultBackend:
    def test_unset_backend_runs_inprocess(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))
        result = DistributedGammaRuntime(program, 3).run(initial)
        assert isinstance(result, ShardedRunResult)
        assert result.backend == "inprocess"
        assert result.final == run(program, initial).final

    @pytest.mark.parametrize("seed", [None, 3])
    def test_unset_backend_decides_like_explicit_inprocess(self, seed):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))

        def profile(config):
            result = DistributedGammaRuntime(program, 3, config=config).run(initial)
            return (
                result.backend,
                result.final,
                result.steps,
                result.firings,
                result.messages,
                result.migrations,
                result.per_partition_firings,
            )

        assert profile(RuntimeConfig(seed=seed)) == profile(
            RuntimeConfig(backend="inprocess", seed=seed)
        )

    def test_unknown_backend_lists_shard_backends(self):
        with pytest.raises(ValueError, match="unknown backend 'legacy'") as error:
            RuntimeConfig(backend="legacy").validate("distributed")
        assert str(error.value).endswith(str(SHARD_BACKENDS))

    def test_recovery_accepted_without_backend(self):
        cfg = RuntimeConfig(shards=2, recovery=RecoveryManager())
        cfg.validate("distributed")
        program = sum_reduction()
        initial = values_multiset(range(1, 17))
        result = DistributedGammaRuntime(program, config=cfg).run(initial)
        assert result.final == run(program, initial).final
