"""Async ingestion gateway: many producer sockets, one admission queue.

The network face of :class:`~repro.runtime.streaming.IngestQueue`.  An
:class:`IngestGateway` listens on a loopback port and multiplexes any number
of concurrent producer connections into one queue, preserving the queue's
admission contract end to end:

* **refuse-or-block, never drop** — an ``offer`` request mirrors
  :meth:`IngestQueue.offer` (non-blocking; over-capacity batches are
  *refused* with a reason, and the producer keeps its elements); a blocking
  request mirrors :meth:`IngestQueue.put` (the reply is withheld until
  capacity frees up or the timeout expires — TCP's own flow control then
  backpressures the producer).  An element is admitted exactly once or not
  at all; the gateway never silently loses one.
* **per-tenant admission control** — each connection names a *tenant* in its
  handshake; with a ``tenant_quota`` set, one tenant's pending (admitted but
  not yet drained) copies may not exceed the quota, so a single hot producer
  cannot starve the others out of the shared queue.  Tenant accounting is
  decremented as the runtime drains epochs, via the queue's take listeners
  — exact while the gateway is the queue's only producer (FIFO admissions
  leave in FIFO order), conservative otherwise.
* **atomic batches** — a batch is admitted all-or-nothing through
  :meth:`IngestQueue.offer_batch`, so a refusal can never leave half a
  batch in the run.

Wire protocol (framed, see :mod:`repro.runtime.net.frames`)::

    ("hello", {"tenant": name})            -> ("welcome", {"tenant": name})
    ("offer", {"batch": column_batch,
               "block": bool,
               "timeout": seconds|None})   -> ("admitted", copies)
                                            | ("refused", reason)
                                            | ("timeout", seconds)
    ("close", None)                        -> ("closed", None)

:class:`GatewayClient` is the synchronous producer-side helper the tests and
benchmarks use; any codec-speaking client works the same way.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ...multiset.columnar import from_column_batch, to_column_batch
from ...multiset.element import Element
from .frames import (
    ConnectionClosed,
    FrameDecoder,
    FrameError,
    encode_frame,
    read_frame,
    recv_frame,
    write_frame,
)

__all__ = ["IngestGateway", "GatewayClient"]

#: Tenant name used when a client's handshake does not declare one.
DEFAULT_TENANT = "default"


def _coerce_pairs(elements: Iterable[Any]) -> List[Tuple[Element, int]]:
    """Normalize producer input into ``(Element, count)`` pairs.

    Accepts :class:`Element` instances, ``(Element, count)`` pairs,
    ``(value, label, tag)`` tuples, and bare values — the same universe
    :meth:`IngestQueue.offer` takes.  A single :class:`Element` (or any
    non-iterable value) is treated as a one-entry batch.
    """
    if isinstance(elements, (Element, str)) or not hasattr(elements, "__iter__"):
        elements = [elements]
    pairs: List[Tuple[Element, int]] = []
    for entry in elements:
        # An Element is itself a tuple: it must be told apart first.
        if isinstance(entry, Element):
            pairs.append((entry, 1))
        elif (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], Element)
            and isinstance(entry[1], int)
        ):
            pairs.append(entry)
        elif isinstance(entry, tuple):
            pairs.append((Element.from_tuple(entry), 1))
        else:
            pairs.append((Element(value=entry), 1))
    return pairs


class IngestGateway:
    """Socket front door multiplexing producer streams into an ingest queue.

    Parameters
    ----------
    queue:
        The :class:`~repro.runtime.streaming.IngestQueue` admissions land
        in.  The gateway registers a take listener on it, so tenant
        accounting tracks the runtime's epoch drains.
    tenant_quota:
        Optional cap on one tenant's pending copies (admitted but not yet
        drained).  ``None`` disables per-tenant control; the queue's own
        ``capacity`` still bounds the total.
    host:
        Bind address (loopback by default — tests and CI never leave the
        machine).

    The server starts listening on an ephemeral port immediately;
    :attr:`port` is the address producers connect to.  :meth:`close` stops
    the listener (idempotent); admitted elements stay in the queue.
    """

    def __init__(
        self,
        queue: Any,
        tenant_quota: Optional[int] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if tenant_quota is not None and tenant_quota <= 0:
            raise ValueError("tenant_quota must be positive (or None)")
        self.queue = queue
        self.tenant_quota = tenant_quota
        #: Copies admitted through the gateway (all tenants, whole lifetime).
        self.injected = 0
        #: Frame bytes received plus sent over every producer connection.
        self.wire_bytes = 0
        #: Offers refused (over quota or over capacity, non-blocking mode).
        self.refused = 0
        #: Blocking offers that timed out before capacity freed up.
        self.timeouts = 0
        self._state = threading.Condition()
        self._pending: Dict[str, int] = {}
        self._ledger: Deque[Tuple[str, int]] = deque()
        self._closed = False
        # Live producer writers (loop-thread access only), so close() can
        # abort them and a blocked client sees EOF instead of hanging.
        self._writers: set = set()
        queue.add_take_listener(self._on_take)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-ingest-gateway", daemon=True
        )
        self._thread.start()
        self._server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._handle, host, 0), self._loop
        ).result(timeout=30)
        self.host = host
        self.port = self._server.sockets[0].getsockname()[1]

    # -- accounting ----------------------------------------------------------------
    def pending_of(self, tenant: str) -> int:
        """Copies this tenant has in the queue (admitted, not yet drained)."""
        with self._state:
            return self._pending.get(tenant, 0)

    def _on_take(self, copies: int) -> None:
        """Queue take listener: retire drained copies from the tenant ledger.

        Admissions leave the queue in FIFO order, so retiring ledger entries
        front-first attributes each drained copy to the tenant that offered
        it (exact while the gateway is the sole producer; never negative
        otherwise — the ledger only ever holds gateway admissions).
        """
        with self._state:
            remaining = copies
            while remaining > 0 and self._ledger:
                tenant, count = self._ledger[0]
                take = min(count, remaining)
                if take == count:
                    self._ledger.popleft()
                else:
                    self._ledger[0] = (tenant, count - take)
                self._pending[tenant] = self._pending.get(tenant, 0) - take
                remaining -= take
            self._state.notify_all()

    # -- admission (runs on executor threads, never the event loop) -----------------
    def _admit(
        self,
        tenant: str,
        pairs: List[Tuple[Element, int]],
        block: bool,
        timeout: Optional[float],
    ) -> Tuple[str, Any]:
        """Admit one batch for ``tenant``; returns the reply ``(kind, payload)``.

        Non-blocking (``block=False``): one shot — over quota or over
        capacity refuses immediately.  Blocking: waits (bounded by
        ``timeout`` seconds) for quota and capacity together; every queue
        drain re-checks the predicate, so the wait mirrors
        :meth:`IngestQueue.put`'s condition loop.  :meth:`close` wakes every
        waiter, and a woken waiter that finds the gateway closed refuses —
        it must never go back to sleep on a condition nobody will signal
        again.
        """
        if block and timeout is not None and timeout < 0:
            # A lapsed deadline (raw clients can ship one) is an immediate
            # timeout refusal: nothing is attempted, so the producer can
            # rely on "timeout == not admitted" even for negative waits.
            self.timeouts += 1
            return ("timeout", timeout)
        copies = sum(count for _, count in pairs)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state:
            while True:
                if self._closed:
                    return ("refused", "gateway closed")
                over_quota = (
                    self.tenant_quota is not None
                    and self._pending.get(tenant, 0) + copies > self.tenant_quota
                )
                admitted = False
                if not over_quota:
                    try:
                        admitted = self.queue.offer_batch(pairs)
                    except ValueError:
                        return ("refused", "stream closed")
                if admitted:
                    self._ledger.append((tenant, copies))
                    self._pending[tenant] = self._pending.get(tenant, 0) + copies
                    self.injected += copies
                    return ("admitted", copies)
                if not block:
                    self.refused += 1
                    return (
                        "refused",
                        "tenant quota exceeded" if over_quota else "queue at capacity",
                    )
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    self.timeouts += 1
                    return ("timeout", timeout)
                self._state.wait(remaining)

    # -- connection handling ---------------------------------------------------------
    async def _handle(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        """Serve one producer connection until it closes."""
        loop = asyncio.get_running_loop()
        self._writers.add(writer)
        try:
            try:
                hello, size = await read_frame(reader)
            except FrameError:
                return
            self.wire_bytes += size
            command, payload = hello
            if command != "hello":
                self.wire_bytes += await write_frame(
                    writer, ("error", f"expected 'hello' handshake, got {command!r}")
                )
                return
            tenant = (payload or {}).get("tenant") or DEFAULT_TENANT
            self.wire_bytes += await write_frame(
                writer, ("welcome", {"tenant": tenant})
            )
            while True:
                try:
                    frame, size = await read_frame(reader)
                except (ConnectionClosed, FrameError, ConnectionError):
                    return
                self.wire_bytes += size
                command, payload = frame
                if command == "close":
                    self.wire_bytes += await write_frame(writer, ("closed", None))
                    return
                if command != "offer":
                    self.wire_bytes += await write_frame(
                        writer, ("error", f"unknown gateway command {command!r}")
                    )
                    return
                pairs = from_column_batch(payload["batch"])
                # The wait (if any) blocks an executor thread, never the
                # loop, so slow tenants cannot stall other connections.
                reply = await loop.run_in_executor(
                    None,
                    self._admit,
                    tenant,
                    pairs,
                    bool(payload.get("block")),
                    payload.get("timeout"),
                )
                self.wire_bytes += await write_frame(writer, reply)
        except (ConnectionError, OSError):
            return  # transport died mid-reply (producer gone or close() abort)
        except RuntimeError:  # pragma: no cover - close() race
            return  # executor already shut down under a just-arrived offer
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already gone
                pass

    def close(self) -> None:
        """Stop listening and release the loop thread (idempotent).

        Waiting admissions are woken and refuse (``_admit`` re-checks the
        closed flag, so no waiter sleeps forever on a queue nobody drains);
        established producer connections are aborted, so a client blocked on
        its reply sees :class:`ConnectionClosed` instead of hanging; the
        loop's default executor — where admissions block — is shut down
        before the loop stops, so no executor thread outlives the gateway or
        stalls interpreter exit.  Elements already admitted stay in the
        queue.
        """
        if self._closed:
            return
        with self._state:
            self._closed = True
            self._state.notify_all()

        def shutdown() -> None:
            self._server.close()
            # Abort, not close: discard buffered replies and surface a
            # prompt EOF/reset to producers mid-request.
            for writer in list(self._writers):
                transport = writer.transport
                if transport is not None:
                    transport.abort()

        self._loop.call_soon_threadsafe(shutdown)
        try:
            # Runs after shutdown() (FIFO loop scheduling); joins the
            # executor threads, which _admit's closed-check lets finish.
            asyncio.run_coroutine_threadsafe(
                self._loop.shutdown_default_executor(), self._loop
            ).result(timeout=10)
        except Exception:  # pragma: no cover - loop already unusable
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if not self._thread.is_alive():
            self._loop.close()


class GatewayClient:
    """Synchronous producer client for an :class:`IngestGateway`.

    Connects, performs the tenant handshake, and exposes the queue's own
    admission verbs over the wire: :meth:`offer` (non-blocking, ``bool``)
    and :meth:`put` (blocking, raises ``TimeoutError``).  Not thread-safe —
    one client per producer thread, matching one connection per producer.
    """

    def __init__(
        self,
        port: int,
        tenant: str = DEFAULT_TENANT,
        host: str = "127.0.0.1",
        timeout: float = 30.0,
    ) -> None:
        """Connect to ``host:port`` and handshake as ``tenant``."""
        self.tenant = tenant
        self._timeout = timeout
        self._decoder = FrameDecoder()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # Request/reply frames are tiny: never let Nagle hold one back for an
        # ACK.  (asyncio's stream transports — both ends of the shard links,
        # the gateway's server side — set this themselves.)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        kind, payload = self._request(("hello", {"tenant": tenant}))
        if kind != "welcome":
            raise RuntimeError(f"gateway rejected handshake: {kind!r} {payload!r}")

    _DEFAULT_TIMEOUT = object()

    def _request(self, frame: Any, timeout: Any = _DEFAULT_TIMEOUT) -> Tuple[str, Any]:
        if timeout is GatewayClient._DEFAULT_TIMEOUT:
            timeout = self._timeout
        self._sock.sendall(encode_frame(frame))
        return recv_frame(self._sock, self._decoder, timeout=timeout)

    def offer(self, elements: Iterable[Any], count: Optional[int] = None) -> bool:
        """Non-blocking batch admission; ``False`` when refused (no loss).

        ``elements`` is any mix of elements / pairs / bare values (see
        :func:`_coerce_pairs`); ``count`` replicates a single-element offer.
        """
        pairs = _coerce_pairs(elements)
        if count is not None:
            if len(pairs) != 1:
                raise ValueError("count applies to single-element offers only")
            pairs = [(pairs[0][0], count)]
        kind, payload = self._request(
            ("offer", {"batch": to_column_batch(pairs), "block": False, "timeout": None})
        )
        if kind == "admitted":
            return True
        if kind == "refused":
            return False
        raise RuntimeError(f"unexpected gateway reply {kind!r}: {payload!r}")

    def put(self, elements: Iterable[Any], timeout: Optional[float] = None) -> int:
        """Blocking batch admission; returns copies admitted.

        Raises ``TimeoutError`` when ``timeout`` seconds pass without
        capacity (the elements were *not* admitted) and ``ValueError`` when
        the stream has closed.  A negative ``timeout`` — a deadline that
        lapsed before the call — raises ``TimeoutError`` immediately
        *without sending the offer*: the old behavior forwarded the negative
        remainder into the socket timeout, which blew up client-side after
        the frame was already on the wire, so the batch could be admitted
        while the producer saw an error.
        """
        pairs = _coerce_pairs(elements)
        if timeout is not None and timeout < 0:
            raise TimeoutError(
                f"no gateway capacity within {timeout}s (deadline already lapsed)"
            )
        wire_timeout = None if timeout is None else timeout + self._timeout
        kind, payload = self._request(
            ("offer", {"batch": to_column_batch(pairs), "block": True, "timeout": timeout}),
            timeout=wire_timeout,
        )
        if kind == "admitted":
            return payload
        if kind == "timeout":
            raise TimeoutError(f"no gateway capacity within {payload}s")
        if kind == "refused":
            raise ValueError(f"gateway refused blocking offer: {payload}")
        raise RuntimeError(f"unexpected gateway reply {kind!r}: {payload!r}")

    def close(self) -> None:
        """End the session (best effort) and close the socket."""
        try:
            self._sock.sendall(encode_frame(("close", None)))
            recv_frame(self._sock, self._decoder, timeout=self._timeout)
        except (OSError, FrameError):  # pragma: no cover - gateway already gone
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
