"""Trace/task reuse analysis (the DF-DTM benefit the paper cites).

Section I of the paper lists "performing instruction trace reuse" [3] among the
benefits a Gamma program gains from being viewed as a dataflow graph: when the
same instruction fires repeatedly with the same operand values, a memoization
cache can skip the re-execution.  Because Algorithm 1 maps node firings to
reaction firings one-for-one, the same analysis can be run on either side.

This module provides:

* :func:`reuse_from_dataflow` / :func:`reuse_from_gamma` — reuse statistics
  extracted from execution traces (total firings, unique signatures, reusable
  firings);
* :class:`MemoizationCache` — an executable cache that can be layered on a
  Gamma execution to *measure* (not just estimate) the firings avoided, which
  is what the memoization benchmark of experiment E9(c) reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dataflow.graph import DataflowGraph
from ..dataflow.interpreter import run_graph
from ..gamma.engine import SequentialEngine
from ..gamma.matching import Matcher
from ..gamma.program import GammaProgram
from ..gamma.tracer import Trace
from ..multiset.multiset import Multiset

__all__ = [
    "ReuseStatistics",
    "reuse_from_dataflow",
    "reuse_from_gamma",
    "MemoizationCache",
    "run_with_memoization",
]


@dataclass(frozen=True)
class ReuseStatistics:
    """Counts of repeated work detected in a trace."""

    total: int
    unique: int

    @property
    def reusable(self) -> int:
        """Firings whose (operation, operand values) signature was seen before."""
        return self.total - self.unique

    @property
    def reuse_ratio(self) -> float:
        return self.reusable / self.total if self.total else 0.0


def reuse_from_dataflow(graph: DataflowGraph, **run_kwargs) -> ReuseStatistics:
    """Reuse statistics of one dataflow execution (root injections excluded)."""
    signatures = run_graph(graph, **run_kwargs).signatures(include_roots=False)
    return ReuseStatistics(total=len(signatures), unique=len(set(signatures)))


def reuse_from_gamma(
    program: GammaProgram, initial: Optional[Multiset] = None, engine: str = "sequential",
    seed: Optional[int] = None,
) -> ReuseStatistics:
    """Reuse statistics of one Gamma execution."""
    from ..api import RuntimeConfig
    from ..gamma.engine import run as run_gamma

    result = run_gamma(program, initial, config=RuntimeConfig(engine=engine, seed=seed))
    stats = result.trace.reuse_statistics()
    return ReuseStatistics(total=stats["total"], unique=stats["unique"])


class MemoizationCache:
    """A (reaction, consumed values) -> produced elements cache.

    Keys ignore tags — reuse across loop iterations is precisely the effect
    DF-DTM exploits.  Produced elements are re-tagged with the current match's
    tag when they are replayed, preserving the dynamic-dataflow semantics.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple, List[Tuple]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(reaction_name: str, consumed) -> Tuple:
        return (reaction_name, tuple((e.value, e.label) for e in consumed))

    def lookup(self, reaction_name: str, consumed):
        key = self._key(reaction_name, consumed)
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        return None

    def store(self, reaction_name: str, consumed, produced) -> None:
        key = self._key(reaction_name, consumed)
        self._cache[key] = [(e.value, e.label, e.tag) for e in produced]

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class MemoizedRunResult:
    """Outcome of :func:`run_with_memoization`."""

    final: Multiset
    firings: int
    computed: int
    replayed: int

    @property
    def savings_ratio(self) -> float:
        return self.replayed / self.firings if self.firings else 0.0


def run_with_memoization(
    program: GammaProgram,
    initial: Optional[Multiset] = None,
    max_steps: int = 1_000_000,
) -> MemoizedRunResult:
    """Sequential Gamma execution with a DF-DTM-style reuse cache.

    Semantically identical to the sequential engine (same stable multiset);
    the point is the ``computed`` / ``replayed`` split: replayed firings are
    the ones whose action evaluation a real implementation would skip.
    """
    from ..multiset.element import Element

    multiset = initial if initial is not None else program.initial
    if multiset is None:
        raise ValueError("an initial multiset is required")
    multiset = multiset.copy()

    cache = MemoizationCache()
    firings = 0
    computed = 0
    replayed = 0

    while firings < max_steps:
        matcher = Matcher(multiset)
        match = None
        for reaction in program.reactions:
            match = matcher.find(reaction)
            if match is not None:
                break
        if match is None:
            break

        cached = cache.lookup(match.reaction.name, match.consumed)
        if cached is not None:
            produced = [Element(value=v, label=l, tag=t) for v, l, t in cached]
            # Re-tag relative to the current match when all consumed tags agree
            # (the loop-iteration case); otherwise replay verbatim.
            consumed_tags = {e.tag for e in match.consumed}
            cached_source_tags = {t for _, _, t in cached}
            if len(consumed_tags) == 1 and len(cached_source_tags) <= 1:
                current_tag = consumed_tags.pop()
                fresh = match.reaction.apply(dict(match.binding))
                # Tag handling (e.g. inctag's +1) must follow the reaction, so use
                # the fresh tags but keep the cached values to model value-reuse.
                produced = [
                    Element(value=c.value, label=f.label, tag=f.tag)
                    for c, f in zip(produced, fresh)
                ] if len(fresh) == len(produced) else fresh
            replayed += 1
        else:
            produced = match.produced()
            cache.store(match.reaction.name, match.consumed, produced)
            computed += 1

        multiset.replace(match.consumed, produced)
        firings += 1

    return MemoizedRunResult(
        final=multiset, firings=firings, computed=computed, replayed=replayed
    )
