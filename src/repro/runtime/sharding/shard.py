"""One shard: a local partition driven by its own compiled scheduler.

A :class:`ShardWorker` owns a local :class:`~repro.multiset.multiset.Multiset`
partition and a persistent compiled
:class:`~repro.gamma.scheduler.ReactionScheduler` over it — the same stack
the single-process engines run on.  Local execution fires *supersteps*: the
scheduler's codegenned collectors extract a maximal disjoint set of
``(tuple, k)`` matches — one per distinct combination, fired ``k`` times —
which is applied through one validation-free counted batch rewrite
(:func:`~repro.gamma.matching.fire_batch`), exactly like
:class:`~repro.gamma.engine.ParallelEngine` does globally.  Migrations
are ordinary multiset mutations: the scheduler's index views the multiset's
own buckets, and the change notifications keep the parked-reaction worklist
fresh across transfers without rebuilds.

The same class backs both backends: the in-process backend holds the workers
directly; the multiprocessing backend runs one per OS process behind a small
pickled-tuple command protocol (:mod:`repro.runtime.sharding.mp`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...gamma.matching import fire_batch
from ...gamma.reaction import Reaction
from ...gamma.scheduler import ReactionScheduler
from ...multiset.element import Element
from ...multiset.multiset import Multiset
from .routing import RoutingTable

__all__ = ["LocalReport", "ShardWorker"]

#: Wire form of one element with multiplicity: ``(value, label, tag, count)``.
#: Plain tuples (not Element instances) cross process boundaries, keeping the
#: queue protocol picklable on every supported interpreter.
ElementQuad = Tuple[Any, str, int, int]


@dataclass(frozen=True)
class LocalReport:
    """Outcome of one shard's local execution round.

    ``stable`` is ``True`` when the shard ran out of local matches (its
    scheduler proved no reaction enabled against the partition); ``False``
    means the round stopped on the superstep cap with work remaining.
    ``labels`` is the partition's label histogram at the end of a stable
    round (the migration planner's input, riding the step reply so the
    exchange needs no extra message) and ``None`` otherwise.
    """

    shard: int
    fired: int
    supersteps: int
    size: int
    stable: bool
    labels: Optional[Dict[str, int]]


def derive_shard_seed(seed: Optional[int], shard: int) -> Optional[int]:
    """Per-shard RNG seed derived from the run seed (``None`` stays ``None``).

    Both backends derive worker seeds through this function, so a seeded
    in-process run and a seeded multiprocessing run of the same program make
    identical scheduling decisions shard by shard.
    """
    if seed is None:
        return None
    return (seed * 1_000_003 + shard) & 0xFFFFFFFF


class ShardWorker:
    """One shard's state: local partition, compiled scheduler, counters.

    Parameters
    ----------
    shard:
        This shard's index (stable across the run).
    reactions:
        The program's reactions; each worker compiles its own schedulers, so
        nothing codegenned ever crosses a process boundary.
    seed:
        Run seed; ``None`` selects deterministic declaration-order probing,
        otherwise the worker probes in the RNG order derived by
        :func:`derive_shard_seed`.
    compiled:
        Forwarded to the scheduler: compiled slot-matchers (default) or the
        interpreted baseline.
    """

    def __init__(
        self,
        shard: int,
        reactions: Sequence[Reaction],
        seed: Optional[int] = None,
        compiled: bool = True,
    ) -> None:
        self.shard = shard
        self.compiled = compiled
        self.multiset = Multiset()
        local_seed = derive_shard_seed(seed, shard)
        rng = random.Random(local_seed) if local_seed is not None else None
        self.scheduler = ReactionScheduler(
            reactions, self.multiset, rng=rng, compiled=compiled
        )
        self.firings = 0
        self.supersteps = 0

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Detach the scheduler's listeners (idempotent)."""
        self.scheduler.detach()

    # -- local execution ----------------------------------------------------------
    def run_local(
        self,
        max_supersteps: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> LocalReport:
        """Fire local supersteps until stable (or a cap is hit).

        ``max_supersteps`` caps the supersteps of this round (``None`` runs
        to the local fixpoint); ``budget`` caps the firings per superstep
        (``None`` extracts maximal batches).  Returns the round's
        :class:`LocalReport`, whose ``fired`` counts firings — a match of
        multiplicity ``k`` counts ``k`` — and which carries the label
        histogram when the round ended stable.
        """
        fired = 0
        steps = 0
        stable = False
        multiset = self.multiset
        scheduler = self.scheduler
        while max_supersteps is None or steps < max_supersteps:
            scheduler.refresh()
            batch = scheduler.collect_superstep_matches(budget=budget)
            if not batch:
                stable = True
                break
            fired += fire_batch(multiset, batch, validate=not self.compiled)
            steps += 1
        self.firings += fired
        self.supersteps += steps
        return LocalReport(
            shard=self.shard,
            fired=fired,
            supersteps=steps,
            size=len(multiset),
            stable=stable,
            labels=multiset.label_counts() if stable else None,
        )

    # -- transfers ----------------------------------------------------------------
    def label_counts(self) -> Dict[str, int]:
        """The shard's label histogram (the ``labels`` command elasticity reads)."""
        return self.multiset.label_counts()

    def extract_labels(self, labels: Sequence[str]) -> List[Tuple[Element, int]]:
        """Remove and return every local element carrying one of ``labels``.

        The batched extraction half of an exchange transfer; the removal
        notifications keep the scheduler's worklist fresh.
        """
        return self.multiset.drain_labels(labels)

    def extract_some(
        self, limit: int, routing: RoutingTable
    ) -> List[Tuple[Element, int]]:
        """Remove up to ``limit`` copies of routable elements (steal donation).

        Elements are taken in partition insertion order, restricted to labels
        the routing table knows (stealing inert elements cannot enable the
        thief).  Returns the extracted ``(element, count)`` pairs; may be
        empty when nothing routable is present.
        """
        if limit <= 0:
            return []
        taken: List[Tuple[Element, int]] = []
        remaining = limit
        for element, count in self.multiset.counts().items():
            if not routing.is_routable(element.label):
                continue
            grab = min(count, remaining)
            taken.append((element, grab))
            remaining -= grab
            if remaining <= 0:
                break
        for element, count in taken:
            self.multiset.remove(element, count)
        return taken

    def ingest(self, pairs: Sequence[Tuple[Element, int]]) -> int:
        """Add a migration batch to the local partition; returns copies added."""
        self.multiset.add_counts(pairs)
        return sum(count for _, count in pairs)

    # -- snapshots ----------------------------------------------------------------
    def counts(self) -> List[Tuple[Element, int]]:
        """Snapshot of the partition as ``(element, count)`` pairs."""
        return list(self.multiset.counts().items())

    # -- wire helpers (shared by the multiprocessing protocol) ---------------------
    @staticmethod
    def to_quads(pairs: Sequence[Tuple[Element, int]]) -> List[ElementQuad]:
        """Encode ``(element, count)`` pairs as picklable wire quads."""
        return [(e.value, e.label, e.tag, count) for e, count in pairs]

    @staticmethod
    def from_quads(quads: Sequence[ElementQuad]) -> List[Tuple[Element, int]]:
        """Decode wire quads back into ``(element, count)`` pairs."""
        return [
            (Element(value=value, label=label, tag=tag), count)
            for value, label, tag, count in quads
        ]
