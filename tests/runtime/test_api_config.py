"""Tests for the unified :mod:`repro.api` configuration surface.

Covers the validation matrix (legacy keywords and ``config=`` raise the
*same* ``ValueError`` texts, because both paths delegate to
:meth:`RuntimeConfig.validate`), the deprecation shims, the config/legacy
mutual exclusion, per-surface applicability, the distributed-runtime rng
regression (consecutive ``run()`` calls with a fixed seed), and that every
execution mode is reachable through a :class:`RuntimeConfig` alone.
"""

import multiprocessing
import warnings

import pytest

from repro.api import (
    SURFACES,
    DistributedGammaRuntime,
    ElasticityPolicy,
    RecoveryManager,
    RuntimeConfig,
    StreamingGammaRuntime,
    run,
    run_program,
    simulate_program,
)
from repro.gamma.expr import BinOp, Compare, Const, var
from repro.gamma.pattern import ElementTemplate
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import pattern
from repro.multiset import Element, Multiset

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def decay_program():
    """``x:a, x>0 → (x-1):a`` — a tiny program every surface can run."""
    reaction = Reaction(
        name="Rdecay",
        replace=[pattern("x", "a", "t")],
        branches=[
            Branch(
                productions=[
                    ElementTemplate(
                        value=BinOp("-", var("x"), Const(1)),
                        label=Const("a"),
                        tag=Const(0),
                    )
                ]
            )
        ],
        guard=Compare(">", var("x"), Const(0)),
    )
    return GammaProgram([reaction], name="decay")


def initial_multiset(values=(3, 5)):
    ms = Multiset()
    for v in values:
        ms.add(Element(v, "a", 0))
    return ms


@pytest.fixture()
def program():
    return decay_program()


@pytest.fixture()
def initial():
    return initial_multiset()


class TestRuntimeConfigBasics:
    def test_frozen(self):
        cfg = RuntimeConfig(seed=1)
        with pytest.raises(AttributeError):
            cfg.seed = 2

    def test_false_normalizes_to_unset(self):
        cfg = RuntimeConfig(parallel=False, columnar=False)
        assert cfg.parallel is None and cfg.columnar is None
        assert cfg == RuntimeConfig()

    def test_merged_overrides_without_mutation(self):
        cfg = RuntimeConfig(engine="chaotic", seed=1)
        derived = cfg.merged(seed=9)
        assert derived == RuntimeConfig(engine="chaotic", seed=9)
        assert cfg.seed == 1

    def test_validate_returns_self(self):
        cfg = RuntimeConfig(engine="sequential")
        assert cfg.validate("engine") is cfg

    def test_unknown_surface(self):
        with pytest.raises(ValueError, match="unknown config surface"):
            RuntimeConfig().validate("cluster")

    @pytest.mark.parametrize("surface", SURFACES)
    def test_empty_config_valid_everywhere(self, surface):
        RuntimeConfig().validate(surface)


# One row per conflict rule: (surface, config, error-regex, legacy-call).
# The legacy call must raise the *same* text — both delegate to validate().
def _legacy_run_parallel_conflict(program, initial):
    run(program, initial, engine="chaotic", parallel=True)


def _legacy_run_unknown_engine(program, initial):
    run(program, initial, engine="bogus")


def _legacy_run_parallel_worker_count(program, initial):
    run(program, initial, parallel=2)


def _legacy_distributed_unknown_backend(program, initial):
    DistributedGammaRuntime(program, 2, backend="bogus")


def _legacy_streaming_unknown_backend(program, initial):
    StreamingGammaRuntime(program, backend="bogus")


def _legacy_streaming_recovery_on_engine_backend(program, initial):
    StreamingGammaRuntime(program, backend="sequential", recovery=RecoveryManager())


VALIDATION_MATRIX = [
    pytest.param(
        "engine",
        RuntimeConfig(engine="chaotic", parallel=True),
        r"parallel=True selects the 'parallel' engine and cannot be combined "
        r"with engine='chaotic'",
        _legacy_run_parallel_conflict,
        id="parallel-engine-conflict",
    ),
    pytest.param(
        "engine",
        RuntimeConfig(engine="bogus"),
        r"unknown engine 'bogus'",
        _legacy_run_unknown_engine,
        id="unknown-engine",
    ),
    pytest.param(
        "engine",
        RuntimeConfig(parallel=2),
        r"parallel must be True, False or None, got 2",
        _legacy_run_parallel_worker_count,
        id="parallel-is-not-a-worker-count",
    ),
    pytest.param(
        "distributed",
        RuntimeConfig(backend="bogus", shards=2),
        r"unknown backend 'bogus'",
        _legacy_distributed_unknown_backend,
        id="unknown-backend",
    ),
    pytest.param(
        "streaming",
        RuntimeConfig(backend="bogus"),
        r"unknown streaming backend 'bogus'",
        _legacy_streaming_unknown_backend,
        id="unknown-streaming-backend",
    ),
    pytest.param(
        "streaming",
        RuntimeConfig(backend="sequential", recovery=RecoveryManager()),
        r"recovery requires a sharded backend .* there is no worker to lose",
        _legacy_streaming_recovery_on_engine_backend,
        id="streaming-recovery-needs-shards",
    ),
]


class TestValidationMatrix:
    @pytest.mark.parametrize("surface,config,message,legacy_call", VALIDATION_MATRIX)
    def test_config_and_legacy_raise_identical_text(
        self, surface, config, message, legacy_call, program, initial
    ):
        with pytest.raises(ValueError, match=message) as via_config:
            config.validate(surface)
        with pytest.raises(ValueError, match=message) as via_legacy:
            legacy_call(program, initial)
        assert str(via_config.value) == str(via_legacy.value)

    def test_positivity_rules(self):
        with pytest.raises(ValueError, match="shards must be positive"):
            RuntimeConfig(backend="inprocess", shards=0).validate("distributed")
        with pytest.raises(ValueError, match="max_steps must be positive"):
            RuntimeConfig(max_steps=0).validate("engine")
        with pytest.raises(ValueError, match="checkpoint_interval must be positive"):
            RuntimeConfig(
                backend="inprocess", shards=2, recovery=RecoveryManager(),
                checkpoint_interval=0,
            ).validate("streaming")

    def test_gateway_field_rules(self):
        with pytest.raises(ValueError, match="gateway_capacity must be positive"):
            RuntimeConfig(gateway_capacity=0).validate("streaming")
        with pytest.raises(ValueError, match="gateway_tenant_quota must be positive"):
            RuntimeConfig(gateway_tenant_quota=-1).validate("streaming")
        with pytest.raises(
            ValueError, match="gateway_tenant_quota=8 exceeds gateway_capacity=4"
        ):
            RuntimeConfig(
                gateway_capacity=4, gateway_tenant_quota=8
            ).validate("streaming")
        # quota == capacity is the boundary case and is allowed
        RuntimeConfig(gateway_capacity=4, gateway_tenant_quota=4).validate("streaming")

    def test_gateway_fields_are_streaming_only(self):
        with pytest.raises(
            ValueError, match="config field gateway_capacity=.* does not apply"
        ):
            RuntimeConfig(gateway_capacity=8).validate("engine")
        with pytest.raises(
            ValueError, match="config field gateway_tenant_quota=.* does not apply"
        ):
            RuntimeConfig(
                backend="inprocess", gateway_tenant_quota=8
            ).validate("distributed")

    def test_network_backend_validates_on_both_sharded_surfaces(self):
        RuntimeConfig(backend="network", shards=2).validate("distributed")
        RuntimeConfig(backend="network", shards=2).validate("streaming")

    def test_checkpoint_interval_requires_recovery_in_batch_mode(self):
        with pytest.raises(
            ValueError, match="checkpoint_interval requires a RecoveryManager"
        ):
            RuntimeConfig(
                backend="inprocess", shards=2, checkpoint_interval=3
            ).validate("distributed")

    def test_elasticity_requires_sharded_backend(self):
        policy = ElasticityPolicy()
        with pytest.raises(
            ValueError, match="no shards to rebalance"
        ):
            RuntimeConfig(backend="chaotic", elasticity=policy).validate("streaming")

    def test_engine_instances_are_not_config(self):
        from repro.gamma.engine import SequentialEngine

        with pytest.raises(ValueError, match="config.engine must be an engine name"):
            RuntimeConfig(engine=SequentialEngine()).validate("engine")

    @pytest.mark.parametrize(
        "surface,config,field",
        [
            ("engine", RuntimeConfig(shards=4), "shards"),
            ("distributed", RuntimeConfig(backend="inprocess", parallel=True), "parallel"),
            ("distributed", RuntimeConfig(backend="inprocess", columnar=True), "columnar"),
            ("simulator", RuntimeConfig(backend="inprocess"), "backend"),
            ("simulator", RuntimeConfig(raise_on_budget=True), "raise_on_budget"),
            ("streaming", RuntimeConfig(engine="chaotic"), "engine"),
        ],
    )
    def test_inapplicable_fields_rejected(self, surface, config, field):
        with pytest.raises(
            ValueError, match=f"config field {field}=.* does not apply"
        ):
            config.validate(surface)

    def test_engine_surface_with_backend_validates_as_distributed(self):
        # backend routes run() to the distributed runtime, so distributed
        # fields apply and engine-only fields are rejected.
        RuntimeConfig(backend="inprocess", shards=2).validate("engine")
        with pytest.raises(ValueError, match="does not apply to the distributed"):
            RuntimeConfig(backend="inprocess", parallel=True).validate("engine")


class TestLegacyShims:
    def test_run_legacy_kwargs_warn_but_work(self, program, initial):
        with pytest.warns(
            DeprecationWarning,
            match=r"legacy keyword configuration of run\(\) \(engine, seed\)",
        ):
            result = run(program, initial, engine="chaotic", seed=1)
        assert result.final.values_with_label("a") == [0, 0]

    def test_run_config_path_does_not_warn(self, program, initial):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(
                program, initial, config=RuntimeConfig(engine="chaotic", seed=1)
            )
        assert result.final.values_with_label("a") == [0, 0]

    def test_run_default_call_does_not_warn(self, program, initial):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(program, initial)

    def test_distributed_legacy_kwargs_warn_but_work(self, program, initial):
        with pytest.warns(
            DeprecationWarning,
            match="legacy keyword configuration of DistributedGammaRuntime",
        ):
            runtime = DistributedGammaRuntime(program, 2, seed=3, backend="inprocess")
        assert runtime.run(initial).final.values_with_label("a") == [0, 0]

    def test_streaming_legacy_kwargs_warn_but_work(self, program, initial):
        with pytest.warns(
            DeprecationWarning,
            match="legacy keyword configuration of StreamingGammaRuntime",
        ):
            runtime = StreamingGammaRuntime(program, backend="inprocess", num_shards=2)
        result = runtime.run(initial, schedule=[])
        assert result.final.values_with_label("a") == [0, 0]

    def test_simulator_legacy_kwargs_warn_but_work(self, program, initial):
        with pytest.warns(
            DeprecationWarning,
            match=r"legacy keyword configuration of simulate_program\(\)",
        ):
            result = simulate_program(program, initial, seed=2)
        assert result.final.values_with_label("a") == [0, 0]

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, i: run(p, i, seed=1, config=RuntimeConfig()),
            lambda p, i: run(p, i, engine="chaotic", config=RuntimeConfig()),
            lambda p, i: DistributedGammaRuntime(p, 2, seed=1, config=RuntimeConfig()),
            lambda p, i: StreamingGammaRuntime(
                p, backend="inprocess", config=RuntimeConfig()
            ),
            lambda p, i: simulate_program(p, i, seed=1, config=RuntimeConfig()),
        ],
        ids=["run-seed", "run-engine", "distributed", "streaming", "simulator"],
    )
    def test_config_plus_legacy_keywords_rejected(self, call, program, initial):
        with pytest.raises(ValueError, match="cannot combine config= with legacy"):
            call(program, initial)

    def test_shards_conflict_with_positional_partitions(self, program):
        with pytest.raises(ValueError, match="num_partitions=2 conflicts"):
            DistributedGammaRuntime(program, 2, config=RuntimeConfig(shards=4))

    def test_validation_error_beats_deprecation_warning(self, program, initial):
        # Legacy misuse raises; it must not *also* warn (CI runs a leg with
        # the deprecation escalated to an error, which would mask the raise).
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(ValueError, match="unknown engine"):
                run(program, initial, engine="bogus")


class TestDistributedRngRegression:
    """Consecutive ``run()`` calls on one runtime must not diverge (PR 8 fix)."""

    def test_consecutive_runs_identical_with_fixed_seed(
        self, backend, program, initial
    ):
        cfg = RuntimeConfig(backend=backend, shards=2, seed=17)
        runtime = DistributedGammaRuntime(program, config=cfg)
        first = runtime.run(initial)
        second = runtime.run(initial)
        assert first.final.counts() == second.final.counts()
        assert first.steps == second.steps
        assert first.firings == second.firings
        assert first.per_partition_firings == second.per_partition_firings

    def test_consecutive_runs_identical_via_legacy_kwargs(self, program, initial):
        with pytest.warns(DeprecationWarning):
            runtime = DistributedGammaRuntime(program, 2, seed=17, backend="inprocess")
        first = runtime.run(initial)
        second = runtime.run(initial)
        assert first.final.counts() == second.final.counts()
        assert first.per_partition_firings == second.per_partition_firings


class TestEveryModeReachableViaConfig:
    """Acceptance: each execution mode is reachable with a RuntimeConfig alone."""

    def _reference(self, program, initial):
        return run(program, initial.copy()).final.counts()

    @pytest.mark.parametrize(
        "config",
        [
            RuntimeConfig(engine="sequential"),
            RuntimeConfig(engine="chaotic", seed=0),
            RuntimeConfig(engine="parallel", seed=0),
            RuntimeConfig(parallel=True, seed=0),
            RuntimeConfig(parallel=True),
            RuntimeConfig(engine="sequential", compiled=False),
            RuntimeConfig(engine="sequential", columnar=True),
            RuntimeConfig(backend="inprocess", shards=2, seed=0),
            pytest.param(
                RuntimeConfig(backend="multiprocessing", shards=2, seed=0),
                marks=pytest.mark.skipif(
                    not FORK_AVAILABLE, reason="fork start method unavailable"
                ),
            ),
            RuntimeConfig(
                backend="inprocess", shards=2, recovery=RecoveryManager(),
                checkpoint_interval=2,
            ),
            RuntimeConfig(
                backend="inprocess", shards=2,
                elasticity=ElasticityPolicy(patience=1, merge_threshold=0),
            ),
        ],
        ids=[
            "sequential", "chaotic", "parallel-by-name", "parallel", "parallel-unseeded",
            "interpreted", "columnar", "sharded", "sharded-multiprocessing",
            "sharded-recovery", "sharded-elastic",
        ],
    )
    def test_run_modes(self, config, program, initial):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = run(program, initial.copy(), config=config)
        assert result.final.counts() == self._reference(program, initial)

    def test_simulator_via_config(self, program, initial):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = simulate_program(
                program, initial.copy(), num_pes=2, config=RuntimeConfig(seed=0)
            )
        assert result.final.counts() == self._reference(program, initial)

    def test_streaming_via_config(self, program, initial):
        cfg = RuntimeConfig(backend="inprocess", shards=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runtime = StreamingGammaRuntime(program, config=cfg)
            result = runtime.run(initial.copy(), schedule=[[Element(4, "a", 0)]])
        expected = initial.copy()
        expected.add(Element(4, "a", 0))
        assert result.final.counts() == self._reference(program, expected)

    def test_run_program_alias_accepts_config(self, program, initial):
        result = run_program(
            program, initial.copy(), config=RuntimeConfig(engine="sequential")
        )
        assert result.final.counts() == self._reference(program, initial)
