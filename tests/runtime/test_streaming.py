"""Tests for the streaming ingestion runtime (`repro.runtime.streaming`)."""

import multiprocessing
import random
import threading
import time

import pytest

from repro.gamma import run
from repro.gamma.engine import NonTerminationError
from repro.gamma.expr import Const
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.scheduler import ReactionScheduler
from repro.gamma.stdlib import (
    min_element,
    pattern,
    sum_reduction,
    template,
    values_multiset,
)
from repro.multiset import Element, Multiset
from repro.runtime import IngestQueue, StreamingGammaRuntime, StreamRunResult
from repro.runtime.sharding.quiescence import (
    DRAINED,
    IDLE,
    RUNNING,
    QuiescenceDetector,
)
from repro.runtime.streaming import STREAM_BACKENDS
from repro.api import RuntimeConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def elements(values, label="x"):
    return [Element(v, label, 0) for v in values]


def union(initial, injected):
    combined = initial.copy()
    for element in injected:
        combined.add(element)
    return combined


class TestIngestQueue:
    def test_fifo_admission(self):
        queue = IngestQueue()
        for v in (3, 1, 2):
            queue.offer(Element(v, "x", 0))
        batch = queue.take_epoch()
        assert [e.value for e, _ in batch] == [3, 1, 2]
        assert queue.pending == 0

    def test_capacity_refuses_overflow(self):
        queue = IngestQueue(capacity=3)
        assert queue.offer(Element(1, "x", 0), 2)
        assert not queue.offer(Element(2, "x", 0), 2)  # 2 + 2 > 3
        assert queue.offer(Element(2, "x", 0), 1)
        assert queue.pending == 3

    def test_offer_all_admits_prefix_under_capacity(self):
        queue = IngestQueue(capacity=2)
        admitted = queue.offer_all(elements([1, 2, 3, 4]))
        assert admitted == 2
        assert queue.pending == 2

    def test_take_epoch_limit_never_splits_entries(self):
        queue = IngestQueue()
        queue.offer(Element(1, "x", 0), 3)
        queue.offer(Element(2, "x", 0), 3)
        batch = queue.take_epoch(limit=4)
        # The second entry would exceed the limit, so it stays queued.
        assert batch == [(Element(1, "x", 0), 3)]
        assert queue.pending == 3

    def test_take_epoch_takes_at_least_one_entry(self):
        queue = IngestQueue()
        queue.offer(Element(1, "x", 0), 10)
        assert queue.take_epoch(limit=2) == [(Element(1, "x", 0), 10)]

    def test_seeded_admission_is_reproducible(self):
        def admit(seed):
            queue = IngestQueue(seed=seed)
            for v in range(12):
                queue.offer(Element(v, "x", 0))
            return [e.value for e, _ in queue.take_epoch()]

        assert admit(7) == admit(7)
        assert admit(7) != list(range(12))  # seeded order is a permutation
        assert sorted(admit(7)) == list(range(12))

    def test_put_blocks_until_capacity_released(self):
        queue = IngestQueue(capacity=1)
        queue.offer(Element(0, "x", 0))
        admitted = []

        def producer():
            queue.put(Element(1, "x", 0))
            admitted.append(True)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert not admitted  # still blocked on backpressure
        queue.take_epoch()
        thread.join(timeout=5)
        assert admitted and queue.pending == 1

    def test_put_timeout(self):
        queue = IngestQueue(capacity=1)
        queue.offer(Element(0, "x", 0))
        with pytest.raises(TimeoutError):
            queue.put(Element(1, "x", 0), timeout=0.05)

    def test_closed_queue_rejects_offers_but_drains(self):
        queue = IngestQueue()
        queue.offer(Element(1, "x", 0))
        queue.close()
        with pytest.raises(ValueError):
            queue.offer(Element(2, "x", 0))
        with pytest.raises(ValueError):
            queue.put(Element(2, "x", 0))
        assert not queue.exhausted  # one entry still pending
        assert queue.take_epoch() == [(Element(1, "x", 0), 1)]
        assert queue.exhausted

    def test_wait_for_input(self):
        queue = IngestQueue()
        assert not queue.wait_for_input(timeout=0.01)
        queue.offer(Element(1, "x", 0))
        assert queue.wait_for_input(timeout=0.01)

    def test_cross_thread_close_wakes_blocked_put_promptly(self):
        # Pins the shutdown contract: a producer blocked on backpressure must
        # observe close() within the condition's wake, not sleep out its full
        # timeout (or forever, with no timeout).
        queue = IngestQueue(capacity=1)
        queue.offer(Element(0, "x", 0))
        outcome = {}

        def producer():
            began = time.monotonic()
            try:
                queue.put(Element(1, "x", 0), timeout=30.0)
            except ValueError:
                outcome["waited"] = time.monotonic() - began

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)  # let the producer block on the full queue
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        # Woken by close(), far before the 30s timeout could expire.
        assert outcome["waited"] < 5.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            IngestQueue(capacity=0)
        queue = IngestQueue()
        with pytest.raises(ValueError):
            queue.offer(Element(1, "x", 0), 0)
        with pytest.raises(ValueError):
            queue.take_epoch(limit=0)


class TestSchedulerInject:
    def test_injection_wakes_parked_reactions(self):
        program = sum_reduction()
        multiset = values_multiset([5])  # one element: Rsum can never fire
        scheduler = ReactionScheduler(program.reactions, multiset)
        try:
            assert scheduler.find_first() is None
            assert scheduler.parked  # Rsum proven dead and parked
            copies = scheduler.inject([(Element(7, "x", 0), 1)])
            assert copies == 1
            scheduler.refresh()
            assert not scheduler.parked
            match = scheduler.find_first()
            assert match is not None
        finally:
            scheduler.detach()

    def test_injection_outside_footprint_leaves_reaction_parked(self):
        program = sum_reduction()
        multiset = values_multiset([5])
        scheduler = ReactionScheduler(program.reactions, multiset)
        try:
            assert scheduler.find_first() is None
            scheduler.inject([(Element(1, "unrelated", 0), 1)])
            scheduler.refresh()
            assert scheduler.parked  # the dirty label missed Rsum's footprint
            assert scheduler.find_first() is None
        finally:
            scheduler.detach()


class TestQuiescenceStreamVerdicts:
    def test_open_stream_downgrades_drained_to_idle(self):
        detector = QuiescenceDetector(2)
        detector.record_local(0, True)
        detector.record_local(1, True)
        assert detector.verdict(plan_empty=True) == DRAINED
        detector.open_stream()
        assert detector.stream_open
        assert detector.verdict(plan_empty=True) == IDLE
        assert not detector.check(plan_empty=True)
        detector.close_stream()
        assert detector.verdict(plan_empty=True) == DRAINED
        assert detector.check(plan_empty=True)

    def test_running_wins_over_stream_state(self):
        detector = QuiescenceDetector(2)
        detector.open_stream()
        assert detector.verdict(plan_empty=True) == RUNNING
        detector.record_local(0, True)
        detector.record_local(1, True)
        assert detector.verdict(plan_empty=False) == RUNNING

    def test_injection_invalidates_shard_stability(self):
        detector = QuiescenceDetector(2)
        detector.record_local(0, True)
        detector.record_local(1, True)
        detector.injected(1, 3)
        assert detector.verdict(plan_empty=True) == RUNNING
        detector.injected(0, 0)  # zero copies leave stability intact
        detector.record_local(1, True)
        assert detector.verdict(plan_empty=True) == DRAINED
        with pytest.raises(ValueError):
            detector.injected(0, -1)


ENGINE_STREAM_BACKENDS = ["sequential", "chaotic", "parallel", "inprocess"]


class TestStreamingGammaRuntime:
    @pytest.mark.parametrize("stream_backend", ENGINE_STREAM_BACKENDS)
    def test_drained_stream_matches_batch_union(self, stream_backend):
        program = sum_reduction()
        initial = values_multiset(range(1, 9))
        injected = elements(range(9, 21))
        reference = run(program, union(initial, injected), config=RuntimeConfig(engine="sequential"))
        runtime = StreamingGammaRuntime(program, config=RuntimeConfig(backend=stream_backend, seed=5, shards=3))
        result = runtime.run(
            initial, schedule=[injected[i : i + 4] for i in range(0, 12, 4)]
        )
        assert isinstance(result, StreamRunResult)
        assert result.final == reference.final
        assert result.stable
        assert result.injected == 12
        assert result.epochs == 4  # initial stabilization + three batches
        assert sum(result.epoch_firings()) == result.firings == 19
        assert len(result.latency_to_stability()) == result.epochs
        assert all(latency >= 0.0 for latency in result.latency_to_stability())

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_multiprocessing_stream_matches_batch_union(self):
        program = min_element()
        initial = values_multiset([9, 14, 11])
        injected = elements([4, 17, 2, 8])
        reference = run(program, union(initial, injected), config=RuntimeConfig(engine="sequential"))
        result = StreamingGammaRuntime(program, config=RuntimeConfig(backend="multiprocessing", seed=2, shards=2)).run(initial, schedule=[injected[:2], injected[2:]])
        assert result.final == reference.final

    def test_incremental_pump_and_snapshot(self):
        runtime = StreamingGammaRuntime(min_element(), config=RuntimeConfig(backend="sequential"))
        runtime.start(values_multiset([9, 5, 7]))
        report = runtime.pump()
        assert report.epoch == 0 and report.injected == 0 and report.stable
        assert runtime.snapshot().values_with_label("x") == [5]
        assert not runtime.drained  # stream still open
        runtime.inject(Element(2, "x", 0))
        runtime.pump()
        assert runtime.snapshot().values_with_label("x") == [2]
        runtime.close_stream()
        runtime.pump()
        assert runtime.drained
        assert runtime.result().final.values_with_label("x") == [2]
        runtime.close()

    def test_sharded_routed_injection(self):
        program = sum_reduction()
        runtime = StreamingGammaRuntime(program, config=RuntimeConfig(backend="inprocess", shards=4, seed=1))
        runtime.start(values_multiset(range(1, 9)))
        runtime.pump()
        session = runtime._session
        assert session is not None and session.detector.stream_open
        admitted = session.injected
        runtime.inject(Element(100, "x", 0))
        runtime.inject(Element(101, "x", 0))
        runtime.pump()
        assert session.injected == admitted + 2
        snapshot = runtime.snapshot()
        assert snapshot.values_with_label("x") == [sum(range(1, 9)) + 201]
        runtime.close_stream()
        runtime.pump()
        result = runtime.result()
        assert result.stable and result.injected == 2
        runtime.close()

    def test_steps_per_epoch_interleaves_injection(self):
        program = sum_reduction()
        runtime = StreamingGammaRuntime(program, steps_per_epoch=2, config=RuntimeConfig(backend="sequential"))
        runtime.start(values_multiset(range(1, 9)))
        report = runtime.pump()
        assert report.steps == 2 and not report.stable  # capped mid-drain
        runtime.close_stream()
        while not runtime.drained:
            runtime.pump()
        assert runtime.result().final.values_with_label("x") == [36]
        runtime.close()

    def test_steps_per_epoch_caps_sharded_rounds(self):
        # The per-epoch cap must also bound the sharded barrier loop: one
        # pump runs at most steps_per_epoch rounds and reports unstable,
        # later pumps continue from the same shard state.
        program = sum_reduction()
        runtime = StreamingGammaRuntime(program, steps_per_epoch=1, config=RuntimeConfig(backend="inprocess", shards=2))
        runtime.start(values_multiset(range(1, 17)))
        report = runtime.pump()
        assert report.steps == 1 and not report.stable
        runtime.close_stream()
        while not runtime.drained:
            report = runtime.pump()
            assert report.steps <= 1
        assert runtime.result().final.values_with_label("x") == [sum(range(1, 17))]
        runtime.close()

    def test_sharded_epochs_take_at_most_three_rounds(self):
        # Each epoch is one fixpoint round plus the exchange it plans, and the
        # round that certifies stability: not one barrier per superstep.
        rng = random.Random(7)
        initial = values_multiset(rng.randint(1, 1000) for _ in range(200))
        schedule = [
            elements(rng.randint(1, 1000) for _ in range(200)) for _ in range(5)
        ]
        injected = [element for batch in schedule for element in batch]
        reference = run(
            min_element(),
            union(initial, injected),
            config=RuntimeConfig(engine="sequential"),
        )
        result = StreamingGammaRuntime(
            min_element(), config=RuntimeConfig(backend="inprocess", shards=2, seed=3)
        ).run(initial, schedule=schedule)
        assert result.final == reference.final
        assert result.epochs == 6
        assert all(report.steps <= 3 for report in result.per_epoch)

    def test_result_readable_after_close_on_sharded_backends(self):
        program = sum_reduction()
        runtime = StreamingGammaRuntime(program, config=RuntimeConfig(backend="inprocess", shards=2))
        result = runtime.run(
            values_multiset([1, 2, 3]), schedule=[elements([4, 5])]
        )  # run() closes the session on the way out
        assert runtime.result().final == result.final
        with pytest.raises(RuntimeError):
            runtime.snapshot()  # live reads end at close; result() stays

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_result_readable_after_close_on_multiprocessing(self):
        program = min_element()
        runtime = StreamingGammaRuntime(program, config=RuntimeConfig(backend="multiprocessing", shards=2))
        result = runtime.run(values_multiset([7, 3, 9]), schedule=[elements([1])])
        assert runtime.result().final == result.final
        assert runtime.result().final.values_with_label("x") == [1]

    def test_seeded_streams_are_reproducible(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 7))
        schedule = [elements([10, 11, 12]), elements([13, 14])]

        def profile(backend):
            result = StreamingGammaRuntime(program, config=RuntimeConfig(backend=backend, seed=9, shards=2)).run(initial, schedule=schedule)
            return (
                result.final,
                result.firings,
                result.steps,
                result.epoch_firings(),
            )

        for backend in ("chaotic", "parallel", "inprocess"):
            assert profile(backend) == profile(backend)

    def test_divergent_stream_raises(self):
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
        runtime = StreamingGammaRuntime(program, config=RuntimeConfig(backend="sequential", max_steps=32))
        with pytest.raises(NonTerminationError):
            runtime.run(values_multiset([1]), schedule=[])

    def test_live_mode_with_producer_thread(self):
        program = sum_reduction()
        runtime = StreamingGammaRuntime(program, config=RuntimeConfig(backend="sequential"))

        def producer():
            for v in range(5, 9):
                runtime.queue.put(Element(v, "x", 0))
                time.sleep(0.005)
            runtime.close_stream()

        thread = threading.Thread(target=producer)
        thread.start()
        result = runtime.run(values_multiset([1, 2, 3, 4]), wait_timeout=10)
        thread.join(timeout=5)
        assert result.final.values_with_label("x") == [sum(range(1, 9))]
        assert result.injected == 4

    def test_live_mode_timeout_on_silent_producer(self):
        runtime = StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(backend="sequential"))
        with pytest.raises(TimeoutError):
            runtime.run(values_multiset([1, 2]), wait_timeout=0.05)

    def test_pure_stream_without_initial(self):
        program = GammaProgram(sum_reduction().reactions, name="pure-stream")
        result = StreamingGammaRuntime(program, config=RuntimeConfig(backend="sequential")).run(
            schedule=[elements([1, 2]), elements([3, 4])]
        )
        assert result.final.values_with_label("x") == [10]

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(backend="carrier-pigeon"))
        with pytest.raises(ValueError):
            StreamingGammaRuntime(sum_reduction(), steps_per_epoch=0)
        with pytest.raises(ValueError):
            StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(max_steps=0))

    def test_lifecycle_errors(self):
        runtime = StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(backend="sequential"))
        with pytest.raises(RuntimeError):
            runtime.snapshot()  # not started
        runtime.start(values_multiset([1, 2]))
        with pytest.raises(RuntimeError):
            runtime.start()  # double start
        runtime.close()
        runtime.close()  # idempotent
        with pytest.raises(RuntimeError):
            runtime.pump()  # closed
