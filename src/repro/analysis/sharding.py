"""Shard balance and communication-volume analyses for distributed runs.

The sharded runtime's scaling story has two failure modes the paper's E9(d)
experiment cares about: *skew* (one shard carries the work while the others
idle) and *communication* (migrations/messages swamp useful firings).  This
module turns a :class:`~repro.runtime.distributed.DistributedRunResult` (or
its :class:`~repro.runtime.sharding.ShardedRunResult` subclass) into the two
corresponding scalar reports, so partition sweeps can be compared across
backends and sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..runtime.distributed import DistributedRunResult

__all__ = ["shard_balance", "communication_volume", "ShardLoadReport", "shard_load_report"]


def shard_balance(loads: Sequence[int]) -> float:
    """Max-over-mean ratio of per-shard loads (1.0 = perfectly balanced).

    ``loads`` is any per-shard count (firings, element copies, supersteps).
    An empty or all-zero sequence is trivially balanced and reports ``1.0``;
    a run where one of N shards did everything reports ``N``.
    """
    total = sum(loads)
    if not loads or not total:
        return 1.0
    return max(loads) * len(loads) / total


@dataclass(frozen=True)
class ShardLoadReport:
    """Summary of one distributed run's load and communication profile.

    ``scale_events`` and ``group_migrations`` report what the elasticity
    layer did during the run (always 0 for a plain
    :class:`~repro.runtime.distributed.DistributedRunResult` and for runs
    without an :class:`~repro.runtime.elasticity.ElasticityPolicy`).
    ``injected`` and ``wire_bytes`` report the ingest-path copies and the
    network transport's socket traffic (both 0 off the network backend).
    """

    firings: int
    migrations: int
    messages: int
    firing_balance: float
    migrations_per_firing: float
    messages_per_firing: float
    scale_events: int = 0
    group_migrations: int = 0
    injected: int = 0
    wire_bytes: int = 0


def communication_volume(result: DistributedRunResult) -> Dict[str, float]:
    """Communication metrics of a distributed run, normalized per firing.

    Returns ``{"migrations", "messages", "injected", "wire_bytes",
    "migrations_per_firing", "messages_per_firing"}``.  ``injected`` counts
    element copies that entered through the ingest path (gateway or direct
    stream injection) rather than the initial load, and ``wire_bytes`` the
    socket bytes the network transport moved — both 0 for in-process and
    multiprocessing results, which communicate without a wire.  The
    per-firing ratios use the same division semantics as
    :attr:`DistributedRunResult.communication_ratio`: a run that
    communicated without firing reports ``inf``, a run that did neither
    reports ``0.0``.
    """

    def ratio(amount: int) -> float:
        if result.firings:
            return amount / result.firings
        return float("inf") if amount else 0.0

    return {
        "migrations": float(result.migrations),
        "messages": float(result.messages),
        "injected": float(getattr(result, "injected", 0)),
        "wire_bytes": float(getattr(result, "wire_bytes", 0)),
        "migrations_per_firing": ratio(result.migrations),
        "messages_per_firing": ratio(result.messages),
    }


def shard_load_report(result: DistributedRunResult) -> ShardLoadReport:
    """Bundle balance and communication metrics for one run.

    ``firing_balance`` is :func:`shard_balance` over the per-partition firing
    counts (``1.0`` when the result carries none).
    """
    volume = communication_volume(result)
    return ShardLoadReport(
        firings=result.firings,
        migrations=result.migrations,
        messages=result.messages,
        firing_balance=shard_balance(result.per_partition_firings),
        migrations_per_firing=volume["migrations_per_firing"],
        messages_per_firing=volume["messages_per_firing"],
        scale_events=getattr(result, "scale_events", 0),
        group_migrations=getattr(result, "group_migrations", 0),
        injected=getattr(result, "injected", 0),
        wire_bytes=getattr(result, "wire_bytes", 0),
    )
