"""Seeded fault injection for the sharded runtime's recovery path.

Testing recovery needs crashes at *chosen* protocol points, reproducibly.
This module provides:

* :class:`FaultEvent` — one scheduled fault: kill a shard's worker at a
  barrier round (``"kill"``), delay its replies without killing it
  (``"delay"`` — pins that liveness polling never declares a slow worker
  dead), kill it at the Nth exchange (``"kill_on_exchange"`` — a crash
  while migrations are in flight, the hardest cut to recover), or sever
  its transport without killing the process (``"drop_connection"`` — a
  network partition; only the network backend can distinguish this from a
  crash, and it must treat both as worker death);
* :class:`FaultSchedule` — a consumable set of events, either hand-built or
  derived deterministically from a seed (:meth:`FaultSchedule.generate`),
  which is what lets Hypothesis shrink crash scenarios in the conformance
  fuzz suite;
* :class:`FaultInjector` — a transparent proxy wrapped around a session's
  backend (:func:`install_faults`): it counts rounds and exchanges, applies
  due events at the matching protocol points, and delegates everything else
  untouched.

Faults are injected through every backend's public fault surface —
``kill(shard)``, ``delay(shard, seconds)`` and ``drop_connection(shard)``.
Against a remote backend a kill is a real ``SIGKILL`` to the worker process
(exercising liveness detection, respawn, and reply draining) and a dropped
connection closes the shard's channel (a kill on the queue pipe, which
cannot be severed on its own); against the in-process backend a kill wipes
the worker's partition and raises
:class:`~repro.runtime.recovery.WorkerDied` directly (exercising the full
checkpoint/rollback/replay logic deterministically, without forking), and
a dropped connection is the same crash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Sequence

__all__ = ["FaultEvent", "FaultSchedule", "FaultInjector", "install_faults"]

#: Fault kinds accepted by :class:`FaultEvent`.
KILL = "kill"
DELAY = "delay"
KILL_ON_EXCHANGE = "kill_on_exchange"
DROP_CONNECTION = "drop_connection"
_KINDS = (KILL, DELAY, KILL_ON_EXCHANGE, DROP_CONNECTION)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is 1-based: the fault applies at the start of the ``at``-th
    barrier round (``kill``/``delay``/``drop_connection``) or the ``at``-th
    exchange (``kill_on_exchange``) — "at or after", so an event scheduled past the
    end of a short run simply never fires.  ``delay`` (seconds) is only
    meaningful for ``delay`` events.
    """

    kind: str
    shard: int
    at: int
    delay: float = 0.0

    def __post_init__(self) -> None:
        """Validate the event's kind and coordinates."""
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {_KINDS}")
        if self.shard < 0:
            raise ValueError("shard must be non-negative")
        if self.at < 1:
            raise ValueError("at is 1-based and must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


class FaultSchedule:
    """A consumable collection of :class:`FaultEvent`\\ s.

    Each event fires at most once: the first protocol point whose counter
    reaches the event's ``at`` consumes it.  Build one explicitly from
    events, or derive one from a seed with :meth:`generate` so a single
    integer reproduces the whole crash scenario.
    """

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        """Wrap ``events`` (validated by their own constructor) for consumption."""
        self._pending: List[FaultEvent] = sorted(
            events, key=lambda event: (event.at, event.shard, event.kind)
        )
        self.applied: List[FaultEvent] = []

    @classmethod
    def generate(
        cls,
        seed: int,
        num_shards: int,
        kills: int = 1,
        delays: int = 0,
        exchange_kills: int = 0,
        drops: int = 0,
        max_round: int = 4,
        max_delay: float = 0.2,
    ) -> "FaultSchedule":
        """Derive a schedule deterministically from ``seed``.

        Victim shards and fault rounds are drawn from ``random.Random(seed)``
        so the same seed always produces the same scenario — the property the
        crash-injection fuzz suite relies on to shrink failures.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        rng = random.Random(seed)
        events = []
        for _ in range(kills):
            events.append(
                FaultEvent(KILL, rng.randrange(num_shards), rng.randint(1, max_round))
            )
        for _ in range(delays):
            events.append(
                FaultEvent(
                    DELAY,
                    rng.randrange(num_shards),
                    rng.randint(1, max_round),
                    delay=rng.uniform(0.01, max_delay),
                )
            )
        for _ in range(exchange_kills):
            events.append(
                FaultEvent(
                    KILL_ON_EXCHANGE, rng.randrange(num_shards), rng.randint(1, 2)
                )
            )
        for _ in range(drops):
            events.append(
                FaultEvent(
                    DROP_CONNECTION,
                    rng.randrange(num_shards),
                    rng.randint(1, max_round),
                )
            )
        return cls(events)

    def due(self, kinds: Sequence[str], counter: int) -> List[FaultEvent]:
        """Consume and return pending events of ``kinds`` with ``at <= counter``."""
        due = [
            event
            for event in self._pending
            if event.kind in kinds and event.at <= counter
        ]
        for event in due:
            self._pending.remove(event)
        return due

    @property
    def pending(self) -> List[FaultEvent]:
        """Events not yet applied."""
        return list(self._pending)

    def exhausted(self) -> bool:
        """True when every event has been consumed."""
        return not self._pending


class FaultInjector:
    """Backend proxy that applies a :class:`FaultSchedule` at protocol points.

    Wraps a shard backend: ``superstep_all`` advances the round counter and
    applies due ``kill``/``delay`` events first; ``execute_transfers``
    advances the exchange counter and applies due ``kill_on_exchange``
    events.  Every other attribute (including the recovery surface the
    session uses to restore state) delegates to the wrapped backend, so the
    proxy is installable on a live session (:func:`install_faults`).
    """

    def __init__(self, backend: Any, schedule: FaultSchedule) -> None:
        """Wrap ``backend``, applying faults from ``schedule``."""
        self._backend = backend
        self.schedule = schedule
        self.rounds_seen = 0
        self.exchanges_seen = 0

    def __getattr__(self, name: str) -> Any:
        """Delegate everything the proxy does not intercept."""
        return getattr(self._backend, name)

    # -- intercepted protocol points ----------------------------------------------
    def superstep_all(self, *args: Any, **kwargs: Any):
        """Apply due round faults, then run the round on the real backend."""
        self.rounds_seen += 1
        for event in self.schedule.due(
            (KILL, DELAY, DROP_CONNECTION), self.rounds_seen
        ):
            self._apply(event)
        return self._backend.superstep_all(*args, **kwargs)

    def execute_transfers(self, *args: Any, **kwargs: Any):
        """Apply due exchange faults, then execute the plan on the real backend."""
        self.exchanges_seen += 1
        for event in self.schedule.due((KILL_ON_EXCHANGE,), self.exchanges_seen):
            self._apply(event)
        return self._backend.execute_transfers(*args, **kwargs)

    # -- fault application --------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        backend = self._backend
        shard = event.shard % backend.num_shards
        self.schedule.applied.append(event)
        if event.kind == DELAY:
            backend.delay(shard, event.delay)
        elif event.kind == DROP_CONNECTION:
            backend.drop_connection(shard)
        else:
            backend.kill(shard)


def install_faults(session: Any, schedule: FaultSchedule) -> FaultInjector:
    """Wrap ``session``'s backend in a :class:`FaultInjector` and return it.

    Install after :meth:`~repro.runtime.sharding.ShardCoordinator.start` (or
    on ``StreamingGammaRuntime.session``) and before driving; the session
    must hold a :class:`~repro.runtime.recovery.RecoveryManager` for kill
    events to be recoverable.
    """
    injector = FaultInjector(session.backend, schedule)
    session.backend = injector
    return injector
