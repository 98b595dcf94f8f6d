"""Multiprocessing shard backend: shard workers as OS processes.

Each shard serves the :class:`~repro.runtime.sharding.protocol.ShardProtocol`
inside its own process, fed through a pair of ``multiprocessing`` queues;
:class:`~repro.runtime.sharding.remote.RemoteBackend` holds the coordinator
side.  Design constraints:

* **nothing codegenned crosses a process boundary** — every worker process
  compiles its own schedulers from the program's reactions;
* **element batches travel as column batches**
  (:func:`~repro.multiset.columnar.to_column_batch`), which pickle on every
  supported interpreter with one list header per column;
* **the fork start method is preferred** when the platform offers it, so the
  reaction objects reach workers by address-space inheritance; under spawn
  they are pickled as ordinary dataclasses.

The coordinator broadcasts ``step`` to every worker before collecting any
reply, so local supersteps of different shards genuinely overlap — this is
the backend that turns the superstep barrier into real multi-core
execution.  Every reply read polls the worker's liveness, so a dead process
is detected within :data:`_LIVENESS_INTERVAL` seconds instead of blocking
until the reply timeout.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
import traceback
from typing import Any, List, Optional, Sequence, Tuple

from ...gamma.reaction import Reaction
from ..recovery import WorkerDied
from .protocol import ShardProtocol
from .remote import RemoteBackend

__all__ = ["MultiprocessingBackend"]

#: Poll granularity of reply reads: a dead worker is detected within about
#: this many seconds regardless of the reply timeout.
_LIVENESS_INTERVAL = 0.05


def _shard_worker_main(
    shard: int,
    reactions: Sequence[Reaction],
    num_shards: int,
    seed: Optional[int],
    compiled: bool,
    commands: "multiprocessing.Queue",
    replies: "multiprocessing.Queue",
) -> None:
    """Worker-process entry point: serve shard commands until ``stop``.

    Any exception is reported as an ``("error", traceback_text)`` reply
    before the process exits, so the coordinator fails loudly instead of
    deadlocking on a silent worker death.
    """
    try:
        protocol = ShardProtocol(shard, reactions, num_shards, seed, compiled)
        while True:
            command, payload = commands.get()
            reply = protocol.handle(command, payload)
            if reply is not None:
                replies.put(reply)
            if command == "stop":
                return
    except BaseException:
        replies.put(("error", traceback.format_exc()))
        raise


class MultiprocessingBackend(RemoteBackend):
    """Shard backend running every worker in its own OS process."""

    name = "multiprocessing"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        """Spawn the worker processes (not yet loaded); see :class:`RemoteBackend`."""
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        super().__init__(*args, **kwargs)

    # -- pipe hooks ----------------------------------------------------------------
    def _spawn(self, shards: List[int]) -> None:
        """Create each shard's queues and worker process."""
        for shard in shards:
            commands = self._context.Queue()
            replies = self._context.Queue()
            process = self._context.Process(
                target=_shard_worker_main,
                args=(shard, *self._worker_args, commands, replies),
                daemon=True,
            )
            process.start()
            self._processes[shard] = process
            self._channels[shard] = (commands, replies)

    def _send(self, shard: int, command: str, payload: Any = None) -> None:
        self._channels[shard][0].put((command, payload))

    def _next_reply(self, shard: int, expected: str) -> Tuple[str, Any]:
        """Read shard ``shard``'s next reply, polling process liveness.

        Blocks at most the reply timeout in total, but checks ``is_alive()``
        every :data:`_LIVENESS_INTERVAL`, so a killed worker surfaces within
        the poll interval.  After observing death, one last non-blocking
        read drains a reply that may have been enqueued before the process
        died.
        """
        replies = self._channels[shard][1]
        process = self._processes[shard]
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                return replies.get(timeout=_LIVENESS_INTERVAL)
            except queue.Empty:
                pass
            if not process.is_alive():
                try:
                    return replies.get_nowait()
                except queue.Empty:
                    raise WorkerDied(
                        shard, f"died awaiting {expected!r} reply"
                    ) from None
            if time.monotonic() >= deadline:
                alive = process.is_alive()
                if self.supervised:
                    # An unresponsive-but-alive worker under supervision is
                    # indistinguishable from a livelock: reclaim it the same
                    # way a crash would be handled.
                    process.kill()
                    process.join(timeout=10)
                raise WorkerDied(
                    shard,
                    f"unresponsive for {self._timeout:.0f}s awaiting "
                    f"{expected!r} reply (process {'alive' if alive else 'dead'})",
                )

    def _alive(self, shard: int) -> bool:
        process = self._processes[shard]
        return process is not None and process.is_alive()

    def _discard(self, shard: int) -> None:
        # A queue cannot be severed on its own: the worker dies instead.
        process = self._processes[shard]
        process.kill()
        process.join(timeout=10)

    def _close(self, shard: int) -> None:
        for channel in self._channels[shard] or ():
            try:
                channel.close()
                channel.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        self._channels[shard] = None
