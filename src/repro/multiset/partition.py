"""Hash partitioning of multisets over a fixed shard count.

The sharded runtime (:mod:`repro.runtime.sharding`) splits one logical
multiset across N shard workers.  Placement must be *stable*: every node (and
every restart) must route an element to the same home shard, so partitioning
is keyed on :meth:`~repro.multiset.element.Element.stable_hash` — a digest of
the canonical ``(value, label, tag)`` triple — never on the builtin,
per-process-salted ``hash()``.

This module holds the placement function and the batched partitioning
helpers the shard coordinator loads and routes with, so every backend agrees
on where every element lives.
"""

from __future__ import annotations

from typing import List, Tuple

from .element import Element
from .multiset import Multiset

__all__ = ["home_of", "partition_counts", "partition_pairs", "hash_partition"]


def home_of(element: Element, num_partitions: int) -> int:
    """The partition ``element`` is routed to by stable-hash placement.

    Parameters
    ----------
    element:
        The element to place.
    num_partitions:
        Number of partitions (must be positive).

    Returns the partition index in ``range(num_partitions)``.  The placement
    is deterministic across processes and ``PYTHONHASHSEED`` values, which is
    what lets independent shard workers agree on elements' homes without
    coordination.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return element.stable_hash() % num_partitions


def partition_counts(
    multiset: Multiset, num_partitions: int
) -> List[List[Tuple[Element, int]]]:
    """Split ``multiset`` into per-partition ``(element, count)`` batches.

    The batches preserve the multiset's insertion order within each
    partition (which deterministic schedulers observe) and carry
    multiplicities, so a partition can be loaded with one batched
    :meth:`~repro.multiset.multiset.Multiset.add_counts` call — the wire
    format of the sharded runtime's load phase.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    batches: List[List[Tuple[Element, int]]] = [[] for _ in range(num_partitions)]
    for element, count in multiset.counts().items():
        batches[element.stable_hash() % num_partitions].append((element, count))
    return batches


def partition_pairs(
    pairs: List[Tuple[Element, int]], num_partitions: int
) -> List[List[Tuple[Element, int]]]:
    """Split ``(element, count)`` pairs into per-partition batches.

    The streaming counterpart of :func:`partition_counts`: an ingest-queue
    epoch batch (already in admission order, not a :class:`Multiset`) is
    routed to stable-hash homes without materializing an intermediate
    multiset, preserving the admission order within each partition — which
    is what keeps seeded streaming runs reproducible shard by shard.
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    batches: List[List[Tuple[Element, int]]] = [[] for _ in range(num_partitions)]
    for element, count in pairs:
        batches[home_of(element, num_partitions)].append((element, count))
    return batches


def hash_partition(multiset: Multiset, num_partitions: int) -> List[Multiset]:
    """Split ``multiset`` into ``num_partitions`` multisets by stable-hash home.

    Convenience view over :func:`partition_counts` for callers that want
    ready-made :class:`Multiset` partitions (tests, analyses).  The union of
    the returned partitions equals ``multiset``.
    """
    parts = [Multiset() for _ in range(num_partitions)]
    for index, batch in enumerate(partition_counts(multiset, num_partitions)):
        parts[index].add_counts(batch)
    return parts
