"""Sharded distributed execution of Gamma programs.

The execution subsystem behind :mod:`repro.runtime.distributed`, built on
the compiled scheduling stack:

* :class:`ShardWorker` — one shard: a local partition of the multiset driven
  by its own compiled :class:`~repro.gamma.scheduler.ReactionScheduler`,
  firing maximal local supersteps through the codegenned collectors and
  :meth:`~repro.multiset.multiset.Multiset.rewrite_batch_unchecked`;
* :class:`RoutingTable` — per-label migration routing derived from reaction
  footprints (labels co-consumed by one reaction share a home shard), which
  makes cross-shard matches resolvable by batched element exchange;
* :class:`QuiescenceDetector` — two-phase global-termination detection: the
  system is quiescent exactly when every shard is locally stable, no
  migration is in flight, and the routing plan is empty (all consumable
  labels co-located, so no cross-shard match can exist);
* :class:`ShardCoordinator` — the barrier protocol tying the above
  together: shards run to their local fixpoint, the exchange is planned from
  the label histograms riding the step replies, termination (optional
  lock-step rounds and work-stealing rebalancing for cost studies);
* three interchangeable backends — :class:`InProcessBackend` (shards as
  objects, deterministic traces for differential testing),
  :class:`MultiprocessingBackend` (shard workers as OS processes exchanging
  element batches over queues) and
  :class:`~repro.runtime.net.NetworkBackend` (shard servers behind framed
  loopback sockets).

Fault tolerance: attach a :class:`~repro.runtime.recovery.RecoveryManager`
(``ShardCoordinator(..., recovery=...)``) and worker death becomes a
rollback to the last epoch checkpoint plus write-ahead-log replay instead of
a fatal error — see :mod:`repro.runtime.recovery` and the seeded
fault-injection harness in :mod:`repro.runtime.faults`.

Entry points: :class:`ShardCoordinator` directly, or
``DistributedGammaRuntime(..., config=RuntimeConfig(backend=...))``.

The names are imported from their submodules on first access (PEP 562), so
a shard server, which needs only :class:`ShardWorker` and
:class:`RoutingTable`, loads neither the coordinator nor the recovery code.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".coordinator": ("ShardCoordinator", "ShardSession", "ShardedRunResult"),
    ".inprocess": ("InProcessBackend",),
    ".mp": ("MultiprocessingBackend",),
    ".quiescence": ("QuiescenceDetector",),
    ".routing": ("RoutingTable", "Transfer"),
    ".shard": ("LocalReport", "ShardWorker"),
})

__all__ = [
    "ShardCoordinator",
    "ShardSession",
    "ShardedRunResult",
    "ShardWorker",
    "LocalReport",
    "RoutingTable",
    "Transfer",
    "QuiescenceDetector",
    "InProcessBackend",
    "MultiprocessingBackend",
]
