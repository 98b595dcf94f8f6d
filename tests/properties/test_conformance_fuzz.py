"""Cross-backend conformance fuzzing: one differential suite for every backend.

Replaces the per-backend hand-picked workload properties (previously split
across ``test_parallel_properties.py`` and ``test_sharded_properties.py``)
with a single differential harness.  Two input sources drive it:

* **generated programs** — random confluent programs from
  :mod:`generators` (random arity/guards/productions over int elements,
  disjoint label blocks), which explore reaction shapes no hand-picked
  workload covers (guarded unary rewrites, inert sinks, joined cross-label
  footprints, programs with several independent subsystems);
* **classic workloads** — the paper's confluent programs at random sizes,
  keeping the old coverage alive in one place.

The pinned contract: for any program × initial multiset × seed, every
backend — sequential, chaotic, parallel supersteps, sharded
in-process, sharded multiprocessing, sharded over loopback TCP — reaches
exactly the stable multiset the sequential compiled engine computes.  A
second property extends the contract to the streaming runtime: after a
seeded injection schedule drains, the final multiset equals a batch run
over ``initial ∪ injected``, on every streaming backend (the ISSUE 5
acceptance differential); the network variant feeds the schedule through
the socket ingestion gateway instead of direct injection (ISSUE 9).
"""

import multiprocessing
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from generators import (
    BACKENDS,
    SHARD_COUNTS,
    chemistry_soups,
    conformance_cases,
    stoichiometric_cases,
)
from repro.gamma import ParallelEngine, run
from repro.multiset import ColumnarStore, Element, Multiset
from repro.multiset import columnar as columnar_module
from repro.runtime import ElasticityPolicy
from repro.runtime.sharding import ShardCoordinator
from repro.runtime.sharding import mp as mp_module
from repro.runtime.streaming import StreamingGammaRuntime
from repro.workloads import make_workload
from repro.api import RuntimeConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: Classic confluent workloads kept under differential coverage.
WORKLOADS = (
    "min_element",
    "max_element",
    "sum_reduction",
    "gcd",
    "prime_sieve",
    "exchange_sort",
    "remove_duplicates",
)

seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**16))
shard_counts = st.sampled_from(SHARD_COUNTS)


def _execute(program, initial, backend, seed, shards):
    """Run ``program`` on ``backend`` and return its stable multiset."""
    if backend in ("inprocess", "multiprocessing", "network"):
        return ShardCoordinator(
            program, shards, backend=backend, seed=seed
        ).run(initial.copy()).final
    return run(program, initial.copy(), config=RuntimeConfig(engine=backend, seed=seed)).final


def _reference(program, initial):
    return run(program, initial.copy(), config=RuntimeConfig(engine="sequential")).final


class TestGeneratedProgramConformance:
    @given(
        case=conformance_cases(),
        backend=st.sampled_from(BACKENDS),
        shards=shard_counts,
        seed=seeds,
    )
    @settings(max_examples=80, deadline=None)
    def test_every_backend_reaches_the_sequential_stable_multiset(
        self, case, backend, shards, seed
    ):
        reference = _reference(case.program, case.initial)
        final = _execute(case.program, case.initial, backend, seed, shards)
        assert final == reference

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(case=conformance_cases(), shards=shard_counts, seed=seeds)
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_multiprocessing_backend_conforms(self, case, shards, seed):
        reference = _reference(case.program, case.initial)
        final = _execute(case.program, case.initial, "multiprocessing", seed, shards)
        assert final == reference


class TestWorkloadConformance:
    @given(
        name=st.sampled_from(WORKLOADS),
        size=st.integers(min_value=2, max_value=24),
        data_seed=st.integers(min_value=0, max_value=5),
        backend=st.sampled_from(BACKENDS),
        shards=shard_counts,
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_every_backend_agrees_on_classic_workloads(
        self, name, size, data_seed, backend, shards, seed
    ):
        workload = make_workload(name, size=size, seed=data_seed)
        reference = _reference(workload.program, workload.initial)
        final = _execute(workload.program, workload.initial, backend, seed, shards)
        assert final == reference

    @given(
        name=st.sampled_from(WORKLOADS),
        size=st.integers(min_value=2, max_value=20),
        engine_seed=seeds,
        max_batch=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    @settings(max_examples=30, deadline=None)
    def test_parallel_engine_options_do_not_change_the_stable_multiset(
        self, name, size, engine_seed, max_batch
    ):
        """Seeds and batch caps explore schedules, never results."""
        workload = make_workload(name, size=size, seed=1)
        reference = _reference(workload.program, workload.initial)
        parallel = ParallelEngine(seed=engine_seed, max_batch=max_batch).run(
            workload.program, workload.initial
        )
        assert parallel.stable
        assert parallel.final == reference

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(
        name=st.sampled_from(WORKLOADS),
        size=st.integers(min_value=2, max_value=16),
        shards=shard_counts,
        seed=seeds,
    )
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_multiprocessing_backend_agrees_on_classic_workloads(
        self, name, size, shards, seed
    ):
        workload = make_workload(name, size=size, seed=2)
        reference = _reference(workload.program, workload.initial)
        final = _execute(
            workload.program, workload.initial, "multiprocessing", seed, shards
        )
        assert final == reference

    def test_multiprocessing_backend_agrees_under_spawn(self):
        """Under the spawn start method nothing is inherited: the reactions
        and every element reach the workers by pickle, so each worker hashes
        them under its own ``PYTHONHASHSEED``."""
        workload = make_workload("remove_duplicates", size=12, seed=2)
        reference = _reference(workload.program, workload.initial)
        spawn = multiprocessing.get_context("spawn")
        with mock.patch.object(mp_module.multiprocessing, "get_context", lambda method=None: spawn):
            final = _execute(workload.program, workload.initial, "multiprocessing", 3, 2)
        assert final == reference


#: Shard counts the ISSUE 9 acceptance pins for the network transport.
NETWORK_SHARD_COUNTS = (1, 2, 4)


class TestNetworkConformance:
    """ISSUE 9 acceptance: the socket transport is protocol-invisible.

    Same differential as the sharded rows above, but the shards are
    loopback-TCP subprocesses behind :class:`NetworkBackend` — framing,
    handshakes, and reply collection must not perturb the stable multiset.
    Few examples: every example boots a server fleet.
    """

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(case=conformance_cases(), shards=st.sampled_from(NETWORK_SHARD_COUNTS), seed=seeds)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_network_backend_conforms(self, case, shards, seed):
        reference = _reference(case.program, case.initial)
        final = _execute(case.program, case.initial, "network", seed, shards)
        assert final == reference

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(
        name=st.sampled_from(WORKLOADS),
        size=st.integers(min_value=2, max_value=16),
        shards=st.sampled_from(NETWORK_SHARD_COUNTS),
        seed=seeds,
    )
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_network_backend_agrees_on_classic_workloads(
        self, name, size, shards, seed
    ):
        workload = make_workload(name, size=size, seed=5)
        reference = _reference(workload.program, workload.initial)
        final = _execute(workload.program, workload.initial, "network", seed, shards)
        assert final == reference

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(
        case=conformance_cases(with_schedule=True),
        shards=st.sampled_from(NETWORK_SHARD_COUNTS),
        seed=seeds,
    )
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_gateway_fed_stream_drain_equals_batch_over_union(
        self, case, shards, seed
    ):
        """Injection through the socket gateway ≡ direct batch injection."""
        from repro.runtime.net import GatewayClient

        reference = _reference(case.program, case.batch_union())
        runtime = StreamingGammaRuntime(
            case.program,
            config=RuntimeConfig(backend="network", seed=seed, shards=shards),
        )
        gateway = runtime.serve_gateway()
        client = GatewayClient(gateway.port)
        try:
            runtime.start(case.initial.copy())
            for batch in case.schedule:
                if batch:
                    client.put(list(batch))
                runtime.pump()
            runtime.close_stream()
            while not runtime.drained:
                runtime.pump()
            result = runtime.result()
        finally:
            client.close()
            runtime.close()
        assert result.stable
        assert result.final == reference
        assert result.injected == len(case.injected_elements())
        assert result.wire_bytes > 0
        assert gateway.injected == len(case.injected_elements())


def _churny_policy(policy_seed):
    """An elasticity policy tuned to rebalance/resize as often as it can.

    Hair-trigger thresholds (one hot round suffices, no cooldown, a narrow
    hysteresis band) maximize migrations and scale events per run, so the
    differential exercises the move/resize machinery, not the steady state.
    """
    return ElasticityPolicy(
        seed=policy_seed,
        patience=1,
        cooldown=0,
        migrate_imbalance=1.2,
        split_threshold=8,
        merge_threshold=2,
        min_shards=1,
        max_shards=8,
    )


class TestElasticConformance:
    """PR 8 acceptance: elastic sharded runs ≡ the sequential stable multiset.

    Same differential contract as the static sharded rows above, but with an
    :class:`ElasticityPolicy` live at every barrier — group migrations and
    split/merge resizes must be invisible in the final multiset.
    """

    @given(
        case=conformance_cases(),
        shards=shard_counts,
        seed=seeds,
        policy_seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_elastic_inprocess_reaches_the_sequential_stable_multiset(
        self, case, shards, seed, policy_seed
    ):
        reference = _reference(case.program, case.initial)
        final = ShardCoordinator(
            case.program,
            shards,
            backend="inprocess",
            seed=seed,
            elasticity=_churny_policy(policy_seed),
        ).run(case.initial.copy()).final
        assert final == reference

    @given(
        name=st.sampled_from(WORKLOADS),
        size=st.integers(min_value=2, max_value=20),
        shards=shard_counts,
        seed=seeds,
        policy_seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_elastic_runs_agree_on_classic_workloads(
        self, name, size, shards, seed, policy_seed
    ):
        workload = make_workload(name, size=size, seed=3)
        reference = _reference(workload.program, workload.initial)
        final = ShardCoordinator(
            workload.program,
            shards,
            backend="inprocess",
            seed=seed,
            elasticity=_churny_policy(policy_seed),
        ).run(workload.initial.copy()).final
        assert final == reference

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(case=conformance_cases(), shards=shard_counts, seed=seeds)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_elastic_multiprocessing_conforms(self, case, shards, seed):
        reference = _reference(case.program, case.initial)
        final = ShardCoordinator(
            case.program,
            shards,
            backend="multiprocessing",
            seed=seed,
            elasticity=_churny_policy(0),
        ).run(case.initial.copy()).final
        assert final == reference

    @given(
        case=conformance_cases(with_schedule=True),
        shards=shard_counts,
        seed=seeds,
        policy_seed=seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_elastic_stream_drain_equals_batch_over_union(
        self, case, shards, seed, policy_seed
    ):
        reference = _reference(case.program, case.batch_union())
        runtime = StreamingGammaRuntime(
            case.program,
            config=RuntimeConfig(
                backend="inprocess",
                seed=seed,
                shards=shards,
                elasticity=_churny_policy(policy_seed),
            ),
        )
        result = runtime.run(
            case.initial.copy(), schedule=[list(batch) for batch in case.schedule]
        )
        assert result.stable
        assert result.final == reference


#: Streaming backends swept by the drain-equals-batch property (the
#: multiprocessing variant lives in tests/runtime/test_streaming.py — one
#: process pool per Hypothesis example is too slow to fuzz here).
STREAMING_BACKENDS = ("sequential", "chaotic", "parallel", "inprocess")


class TestStreamingConformance:
    @given(
        case=conformance_cases(with_schedule=True),
        backend=st.sampled_from(STREAMING_BACKENDS),
        shards=shard_counts,
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_drained_stream_equals_batch_over_union(
        self, case, backend, shards, seed
    ):
        """ISSUE 5 acceptance: stream-then-drain ≡ batch over initial ∪ injected."""
        reference = _reference(case.program, case.batch_union())
        runtime = StreamingGammaRuntime(case.program, config=RuntimeConfig(backend=backend, seed=seed, shards=shards))
        result = runtime.run(
            case.initial.copy(), schedule=[list(batch) for batch in case.schedule]
        )
        assert result.stable
        assert result.final == reference
        assert result.injected == len(case.injected_elements())

    @given(
        case=conformance_cases(with_schedule=True),
        backend=st.sampled_from(STREAMING_BACKENDS),
        shards=shard_counts,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_seeded_streams_are_reproducible(self, case, backend, shards, seed):
        def profile():
            result = StreamingGammaRuntime(case.program, config=RuntimeConfig(backend=backend, seed=seed, shards=shards)).run(
                case.initial.copy(),
                schedule=[list(batch) for batch in case.schedule],
            )
            return (result.final, result.firings, result.steps, result.epoch_firings())

        assert profile() == profile()


#: Engine backends that accept ``run(columnar=True)`` (the sharded backends
#: use the columnar layer for their wire format, not for scheduling).
COLUMNAR_BACKENDS = ("sequential", "chaotic", "parallel")


def _trace_fingerprint(result):
    """The full firing structure of a run (bit-identity comparand)."""
    return [
        [
            (
                firing.step,
                firing.reaction,
                firing.consumed,
                firing.produced,
                tuple(sorted(firing.binding.items())),
            )
            for firing in step.firings
        ]
        for step in result.trace.steps
    ]


class TestColumnarConformance:
    """ISSUE 6 acceptance: columnar mode is observationally invisible."""

    @given(
        case=conformance_cases(),
        backend=st.sampled_from(COLUMNAR_BACKENDS),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_columnar_engines_reach_the_sequential_stable_multiset(
        self, case, backend, seed
    ):
        reference = _reference(case.program, case.initial)
        final = run(case.program, case.initial.copy(), config=RuntimeConfig(engine=backend, seed=seed, columnar=True)).final
        assert final == reference

    @given(
        name=st.sampled_from(WORKLOADS),
        size=st.integers(min_value=2, max_value=24),
        data_seed=st.integers(min_value=0, max_value=5),
        engine=st.sampled_from(("sequential", "parallel")),
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_columnar_traces_are_bit_identical_on_paper_workloads(
        self, name, size, data_seed, engine, seed
    ):
        """Same firings, same order, same bindings — not just the same result."""
        workload = make_workload(name, size=size, seed=data_seed)
        plain = run(workload.program, workload.initial.copy(), config=RuntimeConfig(engine=engine, seed=seed))
        columnar = run(workload.program, workload.initial.copy(), config=RuntimeConfig(engine=engine, seed=seed, columnar=True))
        assert _trace_fingerprint(columnar) == _trace_fingerprint(plain)
        assert columnar.final == plain.final


# -- ColumnarStore round-trip properties ---------------------------------------------

element_values = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=6),
    st.tuples(st.integers(min_value=-100, max_value=100), st.integers()),
)
elements = st.builds(
    Element,
    value=element_values,
    label=st.sampled_from(("x", "y", "data", "acc")),
    tag=st.integers(min_value=0, max_value=3),
)
element_counts = st.lists(
    st.tuples(elements, st.integers(min_value=1, max_value=5)),
    max_size=24,
)


def _multiset_of(pairs):
    multiset = Multiset()
    for element, count in pairs:
        multiset.add(element, count)
    return multiset


class TestColumnarStoreRoundTrip:
    """``ColumnarStore`` ↔ ``Multiset`` is lossless, numpy or not."""

    @given(pairs=element_counts)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_preserves_counts_labels_and_order(self, pairs):
        multiset = _multiset_of(pairs)
        store = ColumnarStore.from_multiset(multiset)
        assert len(store) == len(multiset)
        assert store.counts() == multiset.counts()
        # Same iteration order, not just the same mapping: the engines'
        # deterministic tie-breaks read these orders.
        assert list(store.counts()) == list(multiset.counts())
        assert store.labels() == multiset.labels()
        rebuilt = store.to_multiset()
        assert rebuilt == multiset
        assert list(rebuilt.counts()) == list(multiset.counts())

    @given(pairs=element_counts)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_without_numpy_matches(self, pairs):
        saved = columnar_module._np
        columnar_module._np = None  # the documented pure-Python-fallback seam
        try:
            multiset = _multiset_of(pairs)
            store = ColumnarStore.from_multiset(multiset)
            assert store.counts() == multiset.counts()
            assert store.to_multiset() == multiset
            # The fallback never hands out numpy views.
            for label in store.labels():
                assert store.buckets[label].values_view() is None
        finally:
            columnar_module._np = saved

    @given(pairs=element_counts)
    @settings(max_examples=40, deadline=None)
    def test_column_batch_wire_format_round_trips(self, pairs):
        multiset = _multiset_of(pairs)
        entries = list(multiset.counts().items())
        batch = columnar_module.to_column_batch(entries)
        assert columnar_module.column_batch_copies(batch) == len(multiset)
        assert columnar_module.from_column_batch(batch) == entries


class TestInvariantConformance:
    """ISSUE 10: non-confluent reaction networks under the invariant oracle.

    Chemistry soups and stoichiometric models are deliberately *not*
    confluent — backends may (and do) reach different stable multisets — so
    the differential above does not apply.  What every backend must agree on
    is the **conserved quantity**: total mass for the soups, the left-null-
    space invariants of the stoichiometric matrix for the networks.
    """

    @given(
        workload=chemistry_soups(),
        backend=st.sampled_from(BACKENDS),
        shards=shard_counts,
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_every_backend_conserves_soup_mass(self, workload, backend, shards, seed):
        final = _execute(workload.program, workload.initial, backend, seed, shards)
        assert workload.mass(final) == workload.initial_mass
        assert all(element.value >= 1 for element in final)

    @given(
        case=stoichiometric_cases(),
        backend=st.sampled_from(BACKENDS),
        shards=shard_counts,
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_every_backend_conserves_stoichiometric_invariants(
        self, case, backend, shards, seed
    ):
        network, initial = case
        program = network.to_gamma_program()
        before = network.invariant_values(initial)
        final = _execute(program, initial, backend, seed, shards)
        assert network.invariant_values(final) == before

    @given(
        workload=chemistry_soups(),
        backend=st.sampled_from(STREAMING_BACKENDS),
        shards=shard_counts,
        seed=seeds,
        batch_size=st.integers(min_value=1, max_value=6),
        hold_back=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_streamed_soup_conserves_the_pool_mass(
        self, workload, backend, shards, seed, batch_size, hold_back
    ):
        """The continuously-fed client: stream the pool, mass still balances."""
        from repro.workloads import PoolFeeder

        feeder = PoolFeeder(
            workload, batch_size=batch_size, hold_back=hold_back, seed=seed or 0
        )
        runtime = StreamingGammaRuntime(
            workload.program,
            config=RuntimeConfig(backend=backend, seed=seed, shards=shards),
        )
        result = feeder.feed(runtime)
        assert workload.mass(result.final) == workload.initial_mass
        assert result.injected == len(feeder.elements())

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(workload=chemistry_soups(), shards=shard_counts, seed=seeds)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_multiprocessing_backend_conserves_soup_mass(
        self, workload, shards, seed
    ):
        final = _execute(workload.program, workload.initial, "multiprocessing", seed, shards)
        assert workload.mass(final) == workload.initial_mass


class TestNetworkInvariantConformance:
    """The invariant oracle across loopback-TCP shard fleets and the gateway."""

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(
        workload=chemistry_soups(),
        shards=st.sampled_from(NETWORK_SHARD_COUNTS),
        seed=seeds,
    )
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_network_backend_conserves_soup_mass(self, workload, shards, seed):
        final = _execute(workload.program, workload.initial, "network", seed, shards)
        assert workload.mass(final) == workload.initial_mass

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(
        case=stoichiometric_cases(),
        shards=st.sampled_from(NETWORK_SHARD_COUNTS),
        seed=seeds,
    )
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_network_backend_conserves_stoichiometric_invariants(
        self, case, shards, seed
    ):
        network, initial = case
        before = network.invariant_values(initial)
        final = _execute(network.to_gamma_program(), initial, "network", seed, shards)
        assert network.invariant_values(final) == before

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    @given(
        workload=chemistry_soups(max_molecules=10),
        shards=st.sampled_from(NETWORK_SHARD_COUNTS),
        seed=seeds,
    )
    @settings(
        max_examples=2,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_gateway_fed_soup_stream_conserves_mass(self, workload, shards, seed):
        """Feed the pool over the socket gateway into a network shard fleet."""
        from repro.workloads import PoolFeeder

        feeder = PoolFeeder(workload, batch_size=4, hold_back=0.5, seed=seed or 0)
        runtime = StreamingGammaRuntime(
            workload.program,
            config=RuntimeConfig(backend="network", seed=seed, shards=shards),
        )
        result = feeder.feed_via_gateway(runtime)
        assert workload.mass(result.final) == workload.initial_mass
        assert result.injected == len(feeder.elements())
