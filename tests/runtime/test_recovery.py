"""Tests for the fault-tolerance layer: checkpoints, WAL, rollback recovery."""

import multiprocessing
import pickle

import pytest

from repro.gamma import run
from repro.gamma.stdlib import sum_reduction, values_multiset
from repro.multiset import Element, partition_counts
from repro.multiset import columnar as columnar_module
from repro.multiset.columnar import from_column_batch, to_column_batch
from repro.runtime import StreamingGammaRuntime
from repro.runtime.faults import FaultEvent, FaultSchedule, install_faults
from repro.runtime.recovery import (
    INITIAL_EPOCH,
    Checkpoint,
    DiskCheckpointStore,
    DiskWriteAheadLog,
    MemoryCheckpointStore,
    MemoryWriteAheadLog,
    RecoveryManager,
    WorkerDied,
)
from repro.runtime.sharding import QuiescenceDetector, RoutingTable, ShardCoordinator
from repro.api import RuntimeConfig


def _pairs(values, label="x"):
    return [(Element(value=v, label=label), 1) for v in values]


def _checkpoint(epoch, shards=2, base=0):
    batches = tuple(
        to_column_batch(_pairs(range(base + shard * 10, base + shard * 10 + 3)))
        for shard in range(shards)
    )
    return Checkpoint(epoch=epoch, shard_batches=batches, counters={"rounds": epoch})


class TestCheckpointStores:
    @pytest.mark.parametrize("make_store", [
        lambda tmp: MemoryCheckpointStore(),
        lambda tmp: DiskCheckpointStore(tmp / "ckpts"),
    ], ids=["memory", "disk"])
    def test_save_load_latest_round_trip(self, tmp_path, make_store):
        store = make_store(tmp_path)
        assert store.latest() is None
        first = _checkpoint(INITIAL_EPOCH)
        second = _checkpoint(3, base=100)
        store.save(first)
        store.save(second)
        assert store.epochs() == [INITIAL_EPOCH, 3]
        latest = store.latest()
        assert latest.epoch == 3
        assert latest.counters == {"rounds": 3}
        # The shard partitions survive byte-exactly through the wire format.
        for shard in range(2):
            assert latest.shard_pairs(shard) == from_column_batch(
                second.shard_batches[shard]
            )
        assert store.load(INITIAL_EPOCH).copies() == first.copies()
        with pytest.raises(KeyError):
            store.load(99)

    @pytest.mark.parametrize("make_store", [
        lambda tmp: MemoryCheckpointStore(keep=2),
        lambda tmp: DiskCheckpointStore(tmp / "ckpts", keep=2),
    ], ids=["memory", "disk"])
    def test_retention_drops_oldest_epochs(self, tmp_path, make_store):
        store = make_store(tmp_path)
        for epoch in range(5):
            store.save(_checkpoint(epoch))
        assert store.epochs() == [3, 4]
        assert store.latest().epoch == 4

    def test_resaving_an_epoch_replaces_it(self, tmp_path):
        for store in (MemoryCheckpointStore(), DiskCheckpointStore(tmp_path)):
            store.save(_checkpoint(1))
            replacement = _checkpoint(1, base=50)
            store.save(replacement)
            assert store.epochs() == [1]
            assert store.load(1).copies() == replacement.copies()

    def test_disk_store_survives_reopen(self, tmp_path):
        DiskCheckpointStore(tmp_path).save(_checkpoint(7))
        reopened = DiskCheckpointStore(tmp_path)
        assert reopened.epochs() == [7]
        assert reopened.latest().shard_pairs(0) == _checkpoint(7).shard_pairs(0)

    def test_disk_store_writes_are_atomic_files(self, tmp_path):
        store = DiskCheckpointStore(tmp_path)
        store.save(_checkpoint(2))
        files = list(tmp_path.iterdir())
        # No temp-file residue: either the rename happened or nothing did.
        assert [path.name for path in files] == ["checkpoint_2.pkl"]
        payload = pickle.loads(files[0].read_bytes())
        assert payload["epoch"] == 2

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            MemoryCheckpointStore(keep=0)
        with pytest.raises(ValueError, match="keep"):
            DiskCheckpointStore(tmp_path, keep=-1)

    def test_round_trip_without_numpy(self, tmp_path):
        saved = columnar_module._np
        columnar_module._np = None  # the documented pure-Python-fallback seam
        try:
            store = DiskCheckpointStore(tmp_path)
            checkpoint = _checkpoint(0)
            store.save(checkpoint)
            assert store.latest().shard_pairs(1) == checkpoint.shard_pairs(1)
        finally:
            columnar_module._np = saved


class TestWriteAheadLog:
    @pytest.mark.parametrize("make_wal", [
        lambda tmp: MemoryWriteAheadLog(),
        lambda tmp: DiskWriteAheadLog(tmp / "wal.pkl"),
    ], ids=["memory", "disk"])
    def test_append_orders_and_sequences(self, tmp_path, make_wal):
        wal = make_wal(tmp_path)
        for epoch, values in enumerate(([1, 2], [3], [4, 5, 6])):
            wal.append(epoch, _pairs(values))
        records = wal.records()
        assert [record.sequence for record in records] == [0, 1, 2]
        assert [record.epoch for record in records] == [0, 1, 2]
        assert [record.copies() for record in records] == [2, 1, 3]
        # Replay order and content: exactly the appended batches, in order.
        assert [record.pairs() for record in records] == [
            _pairs([1, 2]), _pairs([3]), _pairs([4, 5, 6])
        ]

    @pytest.mark.parametrize("make_wal", [
        lambda tmp: MemoryWriteAheadLog(),
        lambda tmp: DiskWriteAheadLog(tmp / "wal.pkl"),
    ], ids=["memory", "disk"])
    def test_records_after_and_truncate(self, tmp_path, make_wal):
        wal = make_wal(tmp_path)
        for epoch in range(4):
            wal.append(epoch, _pairs([epoch]))
        assert [r.epoch for r in wal.records_after(1)] == [2, 3]
        assert wal.records_after(5) == []
        dropped = wal.truncate_through(1)
        assert dropped == 2
        assert len(wal) == 2
        assert [r.epoch for r in wal.records()] == [2, 3]
        assert wal.truncate_through(1) == 0

    def test_disk_wal_survives_reopen_and_resumes_sequence(self, tmp_path):
        path = tmp_path / "wal.pkl"
        wal = DiskWriteAheadLog(path)
        wal.append(0, _pairs([1]))
        wal.append(1, _pairs([2]))
        reopened = DiskWriteAheadLog(path)
        assert [r.epoch for r in reopened.records()] == [0, 1]
        record = reopened.append(2, _pairs([3]))
        assert record.sequence == 2

    def test_disk_wal_truncation_compacts_the_file(self, tmp_path):
        path = tmp_path / "wal.pkl"
        wal = DiskWriteAheadLog(path)
        for epoch in range(6):
            wal.append(epoch, _pairs(range(20)))
        before = path.stat().st_size
        wal.truncate_through(4)
        assert path.stat().st_size < before
        assert [r.epoch for r in DiskWriteAheadLog(path).records()] == [5]


class TestRecoveryManager:
    def test_defaults_to_memory_durability(self):
        manager = RecoveryManager()
        assert isinstance(manager.store, MemoryCheckpointStore)
        assert isinstance(manager.wal, MemoryWriteAheadLog)

    def test_checkpoint_truncates_covered_wal_records(self):
        manager = RecoveryManager()
        manager.log_injection(0, _pairs([1]))
        manager.log_injection(1, _pairs([2]))
        manager.checkpoint(0, [to_column_batch(_pairs([9]))])
        assert [r.epoch for r in manager.wal.records()] == [1]
        checkpoint, replay = manager.recovery_plan()
        assert checkpoint.epoch == 0
        assert [r.epoch for r in replay] == [1]

    def test_recovery_plan_without_checkpoint_raises(self):
        with pytest.raises(RuntimeError, match="no checkpoint"):
            RecoveryManager().recovery_plan()

    def test_failure_budget(self):
        manager = RecoveryManager(max_recoveries=2)
        manager.note_failure(WorkerDied(0))
        manager.note_failure(WorkerDied(1))
        with pytest.raises(RuntimeError, match="recovery budget exhausted"):
            manager.note_failure(WorkerDied(0))

    def test_validation(self):
        with pytest.raises(ValueError, match="max_recoveries"):
            RecoveryManager(max_recoveries=0)

    def test_worker_died_carries_shard_and_reason(self):
        failure = WorkerDied(3, "killed by test")
        assert failure.shard == 3
        assert "shard 3" in str(failure) and "killed by test" in str(failure)


class TestDetectorRollback:
    def test_rollback_resets_stability_and_in_flight(self):
        detector = QuiescenceDetector(2)
        detector.record_local(0, True)
        detector.record_local(1, True)
        detector.migrations_started(5)
        detector.rollback()
        assert not detector.all_locally_stable()
        assert detector.in_flight == 0
        # Nothing in flight, plan empty -> quiescent again once shards
        # re-report stability after the restored cut re-stabilizes.
        detector.record_local(0, True)
        detector.record_local(1, True)
        assert detector.check(plan_empty=True)

    def test_rollback_preserves_stream_attachment(self):
        detector = QuiescenceDetector(1)
        detector.open_stream()
        detector.record_local(0, True)
        detector.rollback()
        assert detector.stream_open
        detector.record_local(0, True)
        assert detector.verdict(plan_empty=True) == "idle"


class TestSessionRecoveryInProcess:
    """The full checkpoint/rollback/replay path, without any processes."""

    def test_simulated_crash_recovers_to_sequential_result(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 41))
        reference = run(program, initial.copy(), config=RuntimeConfig(engine="sequential")).final
        manager = RecoveryManager()
        coordinator = ShardCoordinator(
            program,
            3,
            backend="inprocess",
            seed=11,
            recovery=manager,
            checkpoint_rounds=2,
        )
        session = coordinator.start(initial.copy())
        schedule = FaultSchedule([FaultEvent("kill", 1, 2)])
        install_faults(session, schedule)
        try:
            session.drive()
            result = session.result()
        finally:
            session.close()
        assert result.final == reference
        assert result.recoveries == 1
        assert schedule.exhausted()
        assert manager.failures == 1

    def test_initial_checkpoint_taken_at_load(self):
        manager = RecoveryManager()
        coordinator = ShardCoordinator(
            sum_reduction(), 2, backend="inprocess", recovery=manager
        )
        session = coordinator.start(values_multiset(range(4)))
        try:
            assert manager.store.epochs() == [INITIAL_EPOCH]
            assert manager.store.latest().copies() == 4
        finally:
            session.close()

    def test_kill_during_exchange_recovers(self):
        # kill_on_exchange crashes while migrations are in flight — the cut
        # that makes single-shard restore unsound; global rollback handles it.
        program = sum_reduction()
        initial = values_multiset(range(1, 25))
        reference = run(program, initial.copy(), config=RuntimeConfig(engine="sequential")).final
        coordinator = ShardCoordinator(
            program,
            2,
            backend="inprocess",
            recovery=RecoveryManager(),
            checkpoint_rounds=1,
        )
        session = coordinator.start(initial.copy())
        install_faults(session, FaultSchedule([FaultEvent("kill_on_exchange", 0, 1)]))
        try:
            session.drive()
            result = session.result()
        finally:
            session.close()
        assert result.final == reference
        assert result.recoveries == 1

    def test_unsupervised_inprocess_crash_still_fails_loudly(self):
        coordinator = ShardCoordinator(sum_reduction(), 2, backend="inprocess")
        session = coordinator.start(values_multiset(range(1, 9)))
        install_faults(session, FaultSchedule([FaultEvent("kill", 0, 1)]))
        try:
            with pytest.raises(WorkerDied):
                session.drive()
        finally:
            session.close()

    def test_disk_durability_end_to_end(self, tmp_path):
        program = sum_reduction()
        initial = values_multiset(range(1, 21))
        reference = run(program, initial.copy(), config=RuntimeConfig(engine="sequential")).final
        manager = RecoveryManager(
            store=DiskCheckpointStore(tmp_path / "ckpts"),
            wal=DiskWriteAheadLog(tmp_path / "wal.pkl"),
        )
        coordinator = ShardCoordinator(
            program, 2, backend="inprocess", recovery=manager, checkpoint_rounds=1
        )
        session = coordinator.start(initial.copy())
        install_faults(session, FaultSchedule([FaultEvent("kill", 1, 3)]))
        try:
            session.drive()
            result = session.result()
        finally:
            session.close()
        assert result.final == reference
        assert DiskCheckpointStore(tmp_path / "ckpts").latest() is not None

    def test_checkpoint_requires_manager(self):
        coordinator = ShardCoordinator(sum_reduction(), 2, backend="inprocess")
        session = coordinator.start(values_multiset(range(4)))
        try:
            with pytest.raises(RuntimeError, match="RecoveryManager"):
                session.checkpoint()
        finally:
            session.close()

    def test_coordinator_validation(self):
        with pytest.raises(ValueError, match="checkpoint_rounds requires"):
            ShardCoordinator(sum_reduction(), 2, checkpoint_rounds=4)
        with pytest.raises(ValueError, match="checkpoint_rounds must be positive"):
            ShardCoordinator(
                sum_reduction(), 2, recovery=RecoveryManager(), checkpoint_rounds=0
            )


class TestStreamingRecoveryInProcess:
    def _stream(self, kill_round, interval=1, shards=3):
        program = sum_reduction()
        manager = RecoveryManager()
        runtime = StreamingGammaRuntime(program, config=RuntimeConfig(backend="inprocess", seed=5, shards=shards, recovery=manager, checkpoint_interval=interval))
        runtime.start(values_multiset(range(1, 21)))
        install_faults(
            runtime._session, FaultSchedule([FaultEvent("kill", 0, kill_round)])
        )
        batches = [
            _pairs(range(21, 31)),
            _pairs(range(31, 41)),
        ]
        result = runtime.run(
            schedule=[[element for element, _ in batch] for batch in batches]
        )
        return result, manager

    @pytest.mark.parametrize("kill_round", [1, 3, 5])
    def test_drained_stream_survives_crash(self, kill_round):
        program = sum_reduction()
        reference = run(program, values_multiset(range(1, 41)), config=RuntimeConfig(engine="sequential")).final
        result, manager = self._stream(kill_round)
        assert result.final == reference
        assert result.recoveries == 1
        assert manager.failures == 1

    def test_wal_records_are_durable_before_visible(self):
        manager = RecoveryManager()
        runtime = StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(backend="inprocess", shards=2, recovery=manager, checkpoint_interval=10_000))
        runtime.start(values_multiset(range(1, 5)))
        runtime.pump()
        for element, _ in _pairs([100, 200]):
            runtime.queue.offer(element)
        runtime.pump()
        records = manager.wal.records()
        assert [record.epoch for record in records] == [1]
        assert sorted(e.value for e, _ in records[0].pairs()) == [100, 200]
        runtime.close()

    def test_checkpoint_interval_spaces_checkpoints(self):
        manager = RecoveryManager(store=MemoryCheckpointStore(keep=None))
        runtime = StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(backend="inprocess", shards=2, recovery=manager, checkpoint_interval=2))
        runtime.run(
            values_multiset(range(1, 5)),
            schedule=[[Element(value=v, label="x")] for v in (10, 20, 30, 40)],
        )
        # Initial cut at load, then one checkpoint every 2 pumps.
        epochs = manager.store.epochs()
        assert epochs[0] == INITIAL_EPOCH
        assert all(b - a == 2 for a, b in zip(epochs[1:], epochs[2:]))

    def test_recovery_rejected_on_engine_backends(self):
        with pytest.raises(ValueError, match="sharded backend"):
            StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(backend="sequential", recovery=RecoveryManager()))
        with pytest.raises(ValueError, match="checkpoint_interval"):
            StreamingGammaRuntime(sum_reduction(), config=RuntimeConfig(backend="inprocess", recovery=RecoveryManager(), checkpoint_interval=0))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
@pytest.mark.parametrize("backend_name", ["multiprocessing", "network"])
class TestResetDrainOnRemoteBackends:
    """A shard lost while ``recover`` or ``resize`` drains the ``reset_ok``
    acknowledgements must not leave a later shard's acknowledgement behind
    for the next round to misread as its reply."""

    @staticmethod
    def _loaded_backend(name):
        from repro.runtime.net.backend import NetworkBackend
        from repro.runtime.sharding.mp import MultiprocessingBackend

        backend_class = {
            "multiprocessing": MultiprocessingBackend,
            "network": NetworkBackend,
        }[name]
        reactions = list(sum_reduction().reactions)
        backend = backend_class(reactions, 3, RoutingTable(reactions, 3), seed=1)
        backend.supervised = True
        partitions = partition_counts(values_multiset(range(1, 13)), 3)
        backend.load(partitions)
        return backend, partitions

    @staticmethod
    def _kill_when_draining(backend, monkeypatch, victim=1):
        """Kill ``victim`` the first time a drain waits for its ``reset_ok``."""
        read = backend._next_reply
        armed = [True]

        def next_reply(shard, expected):
            if armed[0] and shard == victim and expected == "reset_ok":
                armed[0] = False
                process = backend._processes[victim]
                process.kill()
                process.join(timeout=10)
                raise WorkerDied(victim, "killed while its reset_ok was drained")
            return read(shard, expected)

        monkeypatch.setattr(backend, "_next_reply", next_reply)

    def test_death_while_recover_drains(self, backend_name, monkeypatch):
        backend, partitions = self._loaded_backend(backend_name)
        batches = [to_column_batch(part) for part in partitions]
        try:
            self._kill_when_draining(backend, monkeypatch)
            with pytest.raises(WorkerDied):
                backend.recover(batches)
            backend.recover(batches)
            assert [report.shard for report in backend.superstep_all()] == [0, 1, 2]
        finally:
            backend.stop()

    def test_death_while_resize_drains(self, backend_name, monkeypatch):
        backend, partitions = self._loaded_backend(backend_name)
        try:
            self._kill_when_draining(backend, monkeypatch)
            with pytest.raises(WorkerDied):
                backend.resize(3, partitions)
            backend.resize(3, partitions)
            assert [report.shard for report in backend.superstep_all()] == [0, 1, 2]
        finally:
            backend.stop()
