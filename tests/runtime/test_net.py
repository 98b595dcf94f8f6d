"""Socket-level battery for the network shard transport and ingestion gateway.

Three layers, mirroring the module split of :mod:`repro.runtime.net`:

* **server protocol** — :func:`handle_shard_connection` driven in-process
  over a real loopback socket pair (no subprocess, so the protocol logic
  runs under coverage): handshake, every command/reply pair, the error
  reply, and the single-shot server lifetime;
* **backend failure paths** — a SIGKILL'd shard server and a severed
  connection must both surface as
  :class:`~repro.runtime.recovery.WorkerDied` within the liveness window
  and recover through the PR 7 checkpoint/WAL machinery; without
  supervision they must raise, never hang;
* **gateway admission control** — per-tenant quotas and queue capacity
  refuse or block (mirroring ``offer``/``put``) and never drop an admitted
  element.
"""

import asyncio
import multiprocessing
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import RuntimeConfig
from repro.gamma import run
from repro.gamma.stdlib import (
    exchange_sort,
    indexed_multiset,
    min_element,
    sum_reduction,
    values_multiset,
)
from repro.multiset import Element, Multiset, partition_counts
from repro.multiset.columnar import from_column_batch, to_column_batch
from repro.runtime import ElasticityPolicy, FaultEvent, FaultSchedule, install_faults
from repro.runtime.faults import DELAY, DROP_CONNECTION, KILL
from repro.runtime.net import GatewayClient, IngestGateway, NetworkBackend, handle_shard_connection
from repro.runtime.net.frames import ConnectionClosed, read_frame, write_frame
from repro.runtime.net.server import serve_one_connection
from repro.runtime.recovery import RecoveryManager, WorkerDied
from repro.runtime.sharding import RoutingTable, ShardCoordinator
from repro.runtime.sharding.remote import _reply_timeout
from repro.runtime.streaming import IngestQueue, StreamingGammaRuntime

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="fork start method unavailable"
)


SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Starts a 3-shard backend in an interpreter that finds ``repro`` through
#: ``sys.path`` alone, the way ``benchmarks/e2e/run.py`` does.
_WARM_START_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.gamma.stdlib import min_element
from repro.runtime.net import NetworkBackend
from repro.runtime.sharding import RoutingTable
reactions = list(min_element().reactions)
NetworkBackend(reactions, 3, RoutingTable(reactions, 3), seed=1).stop()
"""


def _sequential(program, initial):
    return run(program, initial.copy(), config=RuntimeConfig(engine="sequential")).final


def _hello_config(program, shard=0, num_shards=1, seed=None):
    """The handshake payload the backend sends (see NetworkBackend._connect)."""
    return {
        "shard": shard,
        "num_shards": num_shards,
        "seed": seed,
        "compiled": True,
        "reactions": tuple(program.reactions),
    }


async def _start_inprocess_server():
    """Bind handle_shard_connection on a loopback port inside this process."""
    server = await asyncio.start_server(handle_shard_connection, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestServerProtocol:
    """The shard server's command protocol, exercised without a subprocess."""

    def test_full_protocol_conversation(self):
        program = sum_reduction()
        initial = values_multiset([3, 4, 5])

        async def conversation():
            server, port = await _start_inprocess_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                await write_frame(writer, ("hello", _hello_config(program)))
                welcome, _ = await read_frame(reader)
                assert welcome == ("welcome", {"shard": 0})

                batch = to_column_batch(list(initial.counts().items()))
                await write_frame(writer, ("load", batch))
                frame, _ = await read_frame(reader)
                assert frame == ("ok", 3)

                await write_frame(writer, ("labels", None))
                (kind, histogram), _ = await read_frame(reader)
                assert kind == "labels"
                assert sum(histogram.values()) == 3

                await write_frame(writer, ("step", (None, None)))
                (kind, report), _ = await read_frame(reader)
                assert kind == "report"
                shard, fired, supersteps, size, stable, labels = report
                assert shard == 0
                assert fired >= 1  # 3+4, then +5 — at least one local firing
                assert stable  # single shard: local quiescence is global
                assert labels == {"x": 1}  # a stable report carries its histogram

                await write_frame(writer, ("snapshot", None))
                (kind, snapshot), _ = await read_frame(reader)
                assert kind == "batch"
                assert sum(count for _, count in from_column_batch(snapshot)) == 1

                # sleep produces no reply; the next command still answers.
                await write_frame(writer, ("sleep", 0.01))
                await write_frame(writer, ("extract_some", 1))
                (kind, extracted), _ = await read_frame(reader)
                assert kind == "batch"
                assert len(from_column_batch(extracted)) <= 1

                await write_frame(writer, ("reset", batch))
                frame, _ = await read_frame(reader)
                assert frame == ("reset_ok", 0)

                # One superstep fires one of the three copies' pairs and stops
                # on the cap with work left: not stable, so no histogram.
                await write_frame(writer, ("step", (1, None)))
                (kind, report), _ = await read_frame(reader)
                assert kind == "report"
                assert report == (0, 1, 1, 2, False, None)

                await write_frame(writer, ("extract_labels", ["x"]))
                (kind, labeled), _ = await read_frame(reader)
                assert kind == "batch"
                assert sum(count for _, count in from_column_batch(labeled)) == 2

                await write_frame(writer, ("stop", None))
                frame, _ = await read_frame(reader)
                assert frame == ("stopped", 0)
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(conversation())

    def test_worker_exception_reports_error_reply(self):
        program = sum_reduction()

        async def conversation():
            server, port = await _start_inprocess_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                await write_frame(writer, ("hello", _hello_config(program)))
                await read_frame(reader)
                await write_frame(writer, ("no_such_command", None))
                (kind, trace), _ = await read_frame(reader)
                assert kind == "error"
                assert "no_such_command" in trace
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(conversation())

    def test_first_frame_must_be_the_handshake(self):
        async def conversation():
            server, port = await _start_inprocess_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                await write_frame(writer, ("step", (None, None)))
                (kind, message), _ = await read_frame(reader)
                assert kind == "error"
                assert "hello" in message
                # the server closes after rejecting the handshake
                with pytest.raises(ConnectionClosed):
                    await read_frame(reader)
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        asyncio.run(conversation())

    def test_disconnect_before_handshake_is_silent(self):
        async def conversation():
            server, port = await _start_inprocess_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
            await asyncio.sleep(0.05)  # give the handler its silent exit
            server.close()
            await server.wait_closed()

        asyncio.run(conversation())

    def test_serve_one_connection_is_single_shot(self):
        """The server coroutine returns once its first connection ends."""
        program = sum_reduction()

        async def scenario():
            ports = []
            task = asyncio.ensure_future(serve_one_connection(ports.append))
            while not ports:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
            await write_frame(writer, ("hello", _hello_config(program)))
            await read_frame(reader)
            await write_frame(writer, ("stop", None))
            await read_frame(reader)
            writer.close()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_wrong_auth_token_is_refused_silently(self):
        """A spawned-style server answers a bad token with a closed socket.

        The failed attempt must not end the single-shot server's lifetime:
        the real control plane authenticates afterwards and is served.
        """
        program = sum_reduction()

        async def scenario():
            ports = []
            task = asyncio.ensure_future(
                serve_one_connection(ports.append, auth_token=b"s3cret")
            )
            while not ports:
                await asyncio.sleep(0.01)

            reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
            with pytest.raises((ConnectionClosed, ConnectionError)):
                await write_frame(writer, ("auth", b"wrong"))
                await write_frame(writer, ("hello", _hello_config(program)))
                await asyncio.wait_for(read_frame(reader), timeout=10)
            writer.close()
            assert not task.done()  # stranger did not consume the lifetime

            reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
            await write_frame(writer, ("auth", b"s3cret"))
            await write_frame(writer, ("hello", _hello_config(program)))
            welcome, _ = await asyncio.wait_for(read_frame(reader), timeout=10)
            assert welcome == ("welcome", {"shard": 0})
            await write_frame(writer, ("stop", None))
            await read_frame(reader)
            writer.close()
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_pickled_hello_never_reaches_an_unauthenticated_decoder(self):
        """REVIEW: the pickle-bearing hello is worthless without the token.

        A local process that race-connects and fires the handshake directly
        (its reactions tuple rides a pickle — the RCE vector) must get a
        closed connection, not a ``pickle.loads`` of its payload.
        """
        program = sum_reduction()

        async def scenario():
            ports = []
            task = asyncio.ensure_future(
                serve_one_connection(ports.append, auth_token=b"s3cret")
            )
            while not ports:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
            with pytest.raises((ConnectionClosed, ConnectionError)):
                await write_frame(writer, ("hello", _hello_config(program)))
                await asyncio.wait_for(read_frame(reader), timeout=10)
            writer.close()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(scenario())


@fork_only
class TestNetworkBackend:
    """Control-plane behavior over real shard-server subprocesses."""

    def test_matches_sequential_engine(self):
        program = min_element()
        initial = values_multiset([9, 4, 7, 1, 8, 2])
        result = ShardCoordinator(program, 2, backend="network", seed=5).run(
            initial.copy()
        )
        assert result.final == _sequential(program, initial)
        assert result.backend == "network"
        assert result.wire_bytes > 0

    def test_seeded_runs_are_deterministic(self):
        program = exchange_sort()
        initial = indexed_multiset([5, 3, 8, 1, 9, 2, 7])

        def profile():
            result = ShardCoordinator(
                program, 3, backend="network", seed=17
            ).run(initial.copy())
            return (result.final, result.firings, result.rounds)

        assert profile() == profile()

    def test_unsupervised_worker_death_raises(self):
        program = sum_reduction()
        reactions = list(program.reactions)
        routing = RoutingTable(reactions, 2)
        backend = NetworkBackend(reactions, 2, routing, seed=1)
        try:
            backend.load(partition_counts(values_multiset([1, 2, 3, 4]), 2))
            backend._processes[1].kill()
            with pytest.raises(RuntimeError, match="shard 1 worker"):
                # loop until the EOF lands; the first call may have raced it
                for _ in range(20):
                    backend.superstep_all()
                    time.sleep(0.05)
        finally:
            backend.stop()

    @staticmethod
    def _supervised_backend_with_lingering_victim(monkeypatch, victim):
        """Two loaded shard servers; ``victim`` is SIGKILLed but its process
        object keeps reporting alive, as it can for a moment after the
        server's socket closed."""
        program = sum_reduction()
        reactions = list(program.reactions)
        backend = NetworkBackend(reactions, 2, RoutingTable(reactions, 2), seed=1)
        backend.supervised = True
        partitions = partition_counts(values_multiset(range(1, 9)), 2)
        backend.load(partitions)
        process = backend._processes[victim]
        process.kill()
        process.join(timeout=10)
        monkeypatch.setattr(process, "is_alive", lambda: True)
        return backend, [to_column_batch(part) for part in partitions]

    def test_lost_connection_marks_the_shard_dead(self, monkeypatch):
        backend, batches = self._supervised_backend_with_lingering_victim(
            monkeypatch, victim=1
        )
        try:
            with pytest.raises(WorkerDied):
                backend.superstep_all()
            assert backend.dead_shards() == [1]
            assert backend.recover(batches) == [1]
            assert sum(report.fired for report in backend.superstep_all()) == 6
        finally:
            backend.stop()

    def test_reset_cut_short_by_a_death_leaves_no_stale_reply(self, monkeypatch):
        # The death surfaces inside the reset broadcast: the session retries
        # the recovery, and the survivor must not answer the next step with
        # the first attempt's reset_ok.
        backend, batches = self._supervised_backend_with_lingering_victim(
            monkeypatch, victim=0
        )
        try:
            with pytest.raises(WorkerDied):
                backend.recover(batches)
            backend.recover(batches)
            assert sum(report.fired for report in backend.superstep_all()) == 6
        finally:
            backend.stop()

    def test_sigkilled_server_recovers_via_checkpoint(self):
        program = exchange_sort()
        initial = indexed_multiset([6, 2, 9, 4, 8, 3])
        coordinator = ShardCoordinator(
            program,
            2,
            backend="network",
            seed=11,
            recovery=RecoveryManager(),
            checkpoint_rounds=1,
        )
        session = coordinator.start(initial.copy())
        install_faults(session, FaultSchedule([FaultEvent(KILL, 0, 2)]))
        try:
            session.drive()
            result = session.result()
        finally:
            session.close()
        assert result.final == _sequential(program, initial)
        assert result.recoveries == 1

    def test_dropped_connection_recovers_via_checkpoint(self):
        """A severed transport (process still up) reads as worker death."""
        program = exchange_sort()
        initial = indexed_multiset([6, 2, 9, 4, 8, 3])
        coordinator = ShardCoordinator(
            program,
            2,
            backend="network",
            seed=11,
            recovery=RecoveryManager(),
            checkpoint_rounds=1,
        )
        session = coordinator.start(initial.copy())
        install_faults(
            session, FaultSchedule([FaultEvent(DROP_CONNECTION, 1, 2)])
        )
        try:
            session.drive()
            result = session.result()
        finally:
            session.close()
        assert result.final == _sequential(program, initial)
        assert result.recoveries == 1

    def test_delayed_replies_are_not_misread_as_death(self):
        program = sum_reduction()
        initial = values_multiset(range(1, 9))
        coordinator = ShardCoordinator(
            program,
            2,
            backend="network",
            seed=3,
            recovery=RecoveryManager(),
            checkpoint_rounds=1,
        )
        session = coordinator.start(initial.copy())
        install_faults(
            session, FaultSchedule([FaultEvent(DELAY, 0, 1, delay=0.1)])
        )
        try:
            session.drive()
            result = session.result()
        finally:
            session.close()
        assert result.final == _sequential(program, initial)
        assert result.recoveries == 0

    def test_elastic_run_matches_sequential(self):
        """Resize (grow, shrink, reconnect) is invisible in the result."""
        program = exchange_sort()
        initial = indexed_multiset([7, 1, 6, 3, 9, 2, 8, 4])
        policy = ElasticityPolicy(
            seed=0,
            patience=1,
            cooldown=0,
            migrate_imbalance=1.2,
            split_threshold=6,
            merge_threshold=2,
            min_shards=1,
            max_shards=6,
        )
        result = ShardCoordinator(
            program, 2, backend="network", seed=9, elasticity=policy
        ).run(initial.copy())
        assert result.final == _sequential(program, initial)

    def test_reply_timeout_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_TIMEOUT", "7.5")
        assert _reply_timeout() == 7.5
        monkeypatch.delenv("REPRO_NET_TIMEOUT")
        assert _reply_timeout() == 300.0

    def test_respawn_never_forks(self):
        """Respawn may launch servers while other threads run in the parent
        (the ingestion gateway's loop), so the backend uses a thread-safe
        start method (fork of a multi-threaded parent is deprecated and
        deadlock-prone) — and a respawned server answers the protocol.
        """
        program = sum_reduction()
        reactions = list(program.reactions)
        backend = NetworkBackend(reactions, 1, RoutingTable(reactions, 1), seed=2)
        try:
            assert backend._context.get_start_method() in ("forkserver", "spawn")
            backend.load(partition_counts(values_multiset([1, 2]), 1))
            backend.respawn([0])
            assert backend.dead_shards() == []
            report = backend.superstep_all()[0]
            assert report.stable  # fresh (empty) worker answers the protocol
        finally:
            backend.stop()

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="forkserver start method unavailable",
    )
    def test_shard_servers_fork_warm_without_pythonpath(self, tmp_path):
        """The forkserver preloads the server code even off ``PYTHONPATH``.

        Python 3.11's forkserver ignores the parent's ``sys.path``, so
        without the backend's ``PYTHONPATH`` handoff its preload fails
        silently and every shard server imports the package again.  CI
        exports ``PYTHONPATH=src``, which hides that, so the check runs a
        clean interpreter outside the repo under ``-X importtime`` (the
        forkserver and its forks inherit the flag): the server module is
        imported by the parent and the forkserver only, never by a shard.
        """
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             _WARM_START_SCRIPT.format(src=SRC)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        imports = [
            line for line in result.stderr.splitlines()
            if re.search(r"\|\s*repro\.runtime\.net\.server$", line)
        ]
        assert len(imports) == 2, imports


class TestIngestQueueBatchAdmission:
    """The atomic batch verb the gateway rides on."""

    def test_offer_batch_is_all_or_nothing(self):
        queue = IngestQueue(capacity=3)
        assert queue.offer_batch([(Element(1, "x"), 2)])
        # 2 pending + 2 more would exceed 3: the whole batch is refused
        assert not queue.offer_batch(
            [(Element(2, "x"), 1), (Element(3, "x"), 1)]
        )
        assert queue.pending == 2
        assert queue.offer_batch([(Element(4, "x"), 1)])
        assert queue.pending == 3

    def test_offer_batch_on_closed_stream_raises(self):
        queue = IngestQueue()
        queue.close()
        with pytest.raises(ValueError):
            queue.offer_batch([(Element(1, "x"), 1)])

    def test_take_listener_reports_drained_copies(self):
        queue = IngestQueue()
        taken = []
        queue.add_take_listener(taken.append)
        queue.offer_batch([(Element(1, "x"), 2), (Element(2, "x"), 1)])
        queue.take_epoch()
        assert taken == [3]


class TestGatewayAdmissionControl:
    """Quota and capacity rules at the socket boundary."""

    def _runtime(self, capacity=None, quota=None):
        runtime = StreamingGammaRuntime(
            sum_reduction(),
            config=RuntimeConfig(
                backend="sequential",
                gateway_capacity=capacity,
                gateway_tenant_quota=quota,
            ),
        )
        gateway = runtime.serve_gateway()
        return runtime, gateway

    def test_gateway_fed_stream_matches_batch_union(self):
        program = sum_reduction()
        initial = values_multiset([10, 20])
        extra = [Element(value, "x") for value in (5, 9, 13)]
        union = initial.copy()
        for element in extra:
            union.add(element)
        runtime, gateway = self._runtime()
        client = GatewayClient(gateway.port, tenant="feed")
        try:
            runtime.start(initial.copy())
            assert client.put(extra) == 3
            runtime.close_stream()
            while not runtime.drained:
                runtime.pump()
            result = runtime.result()
        finally:
            client.close()
            runtime.close()
        assert result.final == _sequential(program, union)
        assert result.injected == 3
        # the close() farewell after result() keeps growing the gateway total
        assert 0 < result.wire_bytes <= gateway.wire_bytes
        assert gateway.injected == 3

    def test_every_client_side_socket_disables_nagle(self):
        # Frames are tiny request/reply pairs; a socket left on Nagle can hold
        # one back for a delayed ACK.  Blocking sockets default to Nagle, so
        # the gateway client and the backend's shard links set TCP_NODELAY
        # by hand.
        def nodelay(sock):
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

        runtime, gateway = self._runtime()
        client = GatewayClient(gateway.port)
        try:
            assert nodelay(client._sock)
        finally:
            client.close()
            runtime.close()
        reactions = list(sum_reduction().reactions)
        backend = NetworkBackend(reactions, 1, RoutingTable(reactions, 1), seed=1)
        try:
            backend.load(partition_counts(values_multiset([1, 2]), 1))
            assert nodelay(backend._channels[0][0])
        finally:
            backend.stop()

    def test_capacity_refusal_is_lossless(self):
        runtime, gateway = self._runtime(capacity=2)
        client = GatewayClient(gateway.port)
        try:
            runtime.start(Multiset())
            assert client.offer(Element(1, "x"))
            assert client.offer(Element(2, "x"))
            assert not client.offer(Element(3, "x"))  # refused, not queued
            runtime.close_stream()
            while not runtime.drained:
                runtime.pump()
            result = runtime.result()
        finally:
            client.close()
            runtime.close()
        assert result.injected == 2
        assert gateway.refused == 1

    def test_tenant_quota_isolates_tenants(self):
        runtime, gateway = self._runtime(capacity=8, quota=2)
        greedy = GatewayClient(gateway.port, tenant="greedy")
        modest = GatewayClient(gateway.port, tenant="modest")
        try:
            runtime.start(Multiset())
            assert greedy.offer(Element(1, "x"), count=2)
            assert not greedy.offer(Element(2, "x"))  # over its own quota
            assert modest.offer(Element(3, "x"))  # other tenants unaffected
            assert gateway.pending_of("greedy") == 2
            assert gateway.pending_of("modest") == 1
            runtime.close_stream()
            while not runtime.drained:
                runtime.pump()
        finally:
            greedy.close()
            modest.close()
            runtime.close()
        assert gateway.injected == 3

    def test_over_capacity_put_blocks_until_a_drain_not_dropped(self):
        """ISSUE 9: over-capacity blocking producers wait; nothing is lost."""
        runtime, gateway = self._runtime(capacity=1)
        client = GatewayClient(gateway.port)
        blocked = GatewayClient(gateway.port)
        admitted = []
        try:
            runtime.start(Multiset())
            assert client.put(Element(1, "x")) == 1  # fills capacity

            def producer():
                admitted.append(blocked.put(Element(2, "x"), timeout=30))

            thread = threading.Thread(target=producer)
            thread.start()
            # the producer is parked on the full queue; a drain frees it
            deadline = time.monotonic() + 10
            while not admitted and time.monotonic() < deadline:
                runtime.pump()
                time.sleep(0.01)
            thread.join(timeout=10)
            assert admitted == [1]
            runtime.close_stream()
            while not runtime.drained:
                runtime.pump()
            result = runtime.result()
        finally:
            client.close()
            blocked.close()
            runtime.close()
        assert result.injected == 2  # both elements arrived; none dropped

    def test_blocking_put_times_out_without_capacity(self):
        runtime, gateway = self._runtime(capacity=1)
        client = GatewayClient(gateway.port)
        try:
            runtime.start(Multiset())
            assert client.put(Element(1, "x")) == 1
            with pytest.raises(TimeoutError):
                client.put(Element(2, "x"), timeout=0.2)
            runtime.close_stream()
            while not runtime.drained:
                runtime.pump()
        finally:
            client.close()
            runtime.close()
        assert gateway.timeouts == 1

    def test_lapsed_deadline_put_refuses_before_sending(self):
        """Regression (ISSUE 10): a negative timeout leaked into the socket.

        ``put(timeout=-40)`` used to compute ``wire_timeout = -40 + 30`` and
        blow up in ``settimeout`` *after* the offer frame was on the wire, so
        the batch could be admitted server-side while the producer saw an
        error.  A lapsed deadline must be an immediate ``TimeoutError`` with
        nothing sent and nothing admitted.
        """
        queue = IngestQueue(capacity=10)
        gateway = IngestGateway(queue)
        client = GatewayClient(gateway.port)
        try:
            with pytest.raises(TimeoutError):
                client.put(Element(1, "x"), timeout=-40)
            # a well-formed request on the same connection still works, so
            # nothing was half-sent by the refused call
            assert client.put(Element(2, "x"), timeout=5) == 1
        finally:
            client.close()
            gateway.close()
            queue.close()
        assert queue.pending == 1  # only the well-formed put was admitted
        assert gateway.injected == 1

    def test_raw_negative_timeout_offer_times_out_without_admission(self):
        """A raw client shipping a lapsed deadline gets an immediate timeout.

        The server-side guard: ``block=True`` with a negative timeout replies
        ``("timeout", t)`` without attempting admission, even though capacity
        is available, so "timeout == not admitted" holds for negative waits.
        """
        import socket

        from repro.runtime.net.frames import FrameDecoder, encode_frame, recv_frame
        from repro.multiset.columnar import to_column_batch

        queue = IngestQueue(capacity=10)
        gateway = IngestGateway(queue)
        try:
            sock = socket.create_connection(("127.0.0.1", gateway.port), timeout=10)
            decoder = FrameDecoder()
            sock.sendall(encode_frame(("hello", {"tenant": "late"})))
            kind, _ = recv_frame(sock, decoder, timeout=10)
            assert kind == "welcome"
            batch = to_column_batch([(Element(1, "x"), 1)])
            sock.sendall(
                encode_frame(("offer", {"batch": batch, "block": True, "timeout": -5}))
            )
            kind, payload = recv_frame(sock, decoder, timeout=10)
            assert (kind, payload) == ("timeout", -5)
            sock.close()
        finally:
            gateway.close()
            queue.close()
        assert gateway.timeouts == 1
        assert gateway.injected == 0
        assert queue.pending == 0  # nothing admitted despite free capacity

    def test_closed_stream_rejects_producers(self):
        runtime, gateway = self._runtime()
        client = GatewayClient(gateway.port)
        try:
            runtime.start(Multiset())
            runtime.close_stream()
            assert not client.offer(Element(1, "x"))
            with pytest.raises(ValueError):
                client.put(Element(2, "x"))
            while not runtime.drained:
                runtime.pump()
        finally:
            client.close()
            runtime.close()

    def test_serve_gateway_is_idempotent_and_close_final(self):
        runtime, gateway = self._runtime()
        assert runtime.serve_gateway() is gateway
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.serve_gateway()

    def test_gateway_rejects_bad_handshake(self):
        import socket

        from repro.runtime.net.frames import FrameDecoder, encode_frame, recv_frame

        queue = IngestQueue()
        gateway = IngestGateway(queue)
        try:
            sock = socket.create_connection(("127.0.0.1", gateway.port), timeout=10)
            sock.sendall(encode_frame(("offer", {})))
            kind, _ = recv_frame(sock, FrameDecoder(), timeout=10)
            assert kind == "error"
            sock.close()
        finally:
            gateway.close()
            queue.close()

    def test_close_wakes_a_blocked_put_instead_of_stranding_it(self):
        """REVIEW: close() must not leave a waiter asleep on a full queue.

        A blocking put with no timeout parks an executor thread on the
        admission condition; close() has to wake it into a refusal (or a
        dropped connection — both surface as ``ValueError`` client-side),
        join the executor, and release the loop thread.
        """
        queue = IngestQueue(capacity=1)
        gateway = IngestGateway(queue)
        filler = GatewayClient(gateway.port)
        blocked = GatewayClient(gateway.port)
        outcome = []
        try:
            assert filler.put(Element(1, "x")) == 1  # queue is now full

            def producer():
                try:
                    outcome.append(blocked.put(Element(2, "x"), timeout=None))
                except ValueError as exc:  # ConnectionClosed is a ValueError too
                    outcome.append(exc)

            thread = threading.Thread(target=producer)
            thread.start()
            time.sleep(0.2)  # let the offer reach the admission wait
            gateway.close()
            thread.join(timeout=10)
            assert not thread.is_alive()  # woken, not stranded
            assert len(outcome) == 1
            assert isinstance(outcome[0], ValueError)  # refused or cut, not admitted
            assert not gateway._thread.is_alive()
            assert queue.pending == 1  # the blocked element was never admitted
        finally:
            filler.close()
            blocked.close()
            gateway.close()
            queue.close()

    def test_pickle_bearing_offer_is_refused_not_loaded(self):
        """REVIEW: the gateway must never unpickle bytes off the wire."""
        import socket

        from repro.runtime.net.frames import (
            FrameDecoder,
            FrameError,
            encode_frame,
            recv_frame,
        )

        queue = IngestQueue()
        gateway = IngestGateway(queue)
        try:
            sock = socket.create_connection(("127.0.0.1", gateway.port), timeout=10)
            decoder = FrameDecoder()
            sock.sendall(encode_frame(("hello", {"tenant": "evil"})))
            kind, _ = recv_frame(sock, decoder, timeout=10)
            assert kind == "welcome"
            # a column batch whose value column smuggles a pickled object
            batch = ([frozenset({1})], ["x"], [0], [1])
            sock.sendall(
                encode_frame(("offer", {"batch": batch, "block": False, "timeout": None}))
            )
            with pytest.raises((FrameError, OSError)):
                recv_frame(sock, decoder, timeout=10)  # connection cut, no reply
            sock.close()
        finally:
            gateway.close()
            queue.close()
        assert gateway.injected == 0  # nothing was admitted, nothing executed

    def test_direct_gateway_ledger_tracks_queue_drains(self):
        queue = IngestQueue(capacity=10)
        gateway = IngestGateway(queue, tenant_quota=5)
        client = GatewayClient(gateway.port, tenant="t")
        try:
            assert client.put([Element(1, "x"), Element(2, "x")]) == 2
            assert gateway.pending_of("t") == 2
            queue.take_epoch()
            assert gateway.pending_of("t") == 0
            assert client.put(Element(3, "x"), timeout=5) == 1
        finally:
            client.close()
            gateway.close()
            queue.close()
        assert gateway.injected == 3
