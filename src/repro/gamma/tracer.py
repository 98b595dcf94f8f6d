"""Execution traces for Gamma runs.

A trace records, step by step, which reaction fired on which elements and what
it produced.  Traces serve three purposes in the reproduction:

* the equivalence checker cross-references Gamma traces with dataflow firing
  logs (each converted reaction firing corresponds to one node firing);
* the parallelism analysis (experiment E9) reads the per-step firing counts
  of the parallel engine to build parallelism profiles;
* the memoization analysis (DF-DTM-style trace reuse, one of the benefits the
  paper cites) detects repeated (reaction, consumed-values) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..multiset.element import Element

__all__ = ["FiringRecord", "StepRecord", "Trace"]

#: One logged firing: ``(step, reaction, consumed, produced, binding, times)``.
_LogEntry = Tuple[
    int, str, Tuple[Element, ...], Tuple[Element, ...], Optional[Dict[str, Any]], int
]


@dataclass(frozen=True)
class FiringRecord:
    """One reaction firing: consumed elements, produced elements, binding.

    ``times`` is the firing's multiplicity: the superstep engines fire one
    tuple ``k`` times at once (:attr:`repro.gamma.matching.Match.times`) and
    record it as one entry carrying the count, not ``k`` entries.  Every
    aggregate below (:attr:`StepRecord.width`, :attr:`Trace.num_firings`,
    :meth:`Trace.firing_counts`, ...) weights by it, so they keep counting
    firings.
    """

    step: int
    reaction: str
    consumed: Tuple[Element, ...]
    produced: Tuple[Element, ...]
    binding: Dict[str, Any] = field(default_factory=dict)
    times: int = 1

    def signature(self) -> Tuple[str, Tuple[Tuple[Any, str], ...]]:
        """A reuse signature: reaction name plus the (value, label) pairs consumed.

        Tags are deliberately excluded — trace reuse is precisely the
        observation that the same operation over the same values recurs across
        iterations (different tags).
        """
        return (self.reaction, tuple((e.value, e.label) for e in self.consumed))


@dataclass
class StepRecord:
    """All firings applied in one scheduler step (1 for sequential schedulers)."""

    step: int
    firings: List[FiringRecord] = field(default_factory=list)

    @property
    def width(self) -> int:
        """Number of reactions fired simultaneously in this step."""
        return sum(firing.times for firing in self.firings)


class Trace:
    """A whole-run trace.

    Recording is a flat log: :meth:`begin_step` bumps a counter and
    :meth:`record` appends one ``(step, reaction, consumed, produced, binding,
    times)`` tuple, so the firing loops build no record objects.  The
    :class:`StepRecord` / :class:`FiringRecord` views (:attr:`steps`,
    :meth:`firings`) are materialized when first read and extended by later
    reads, with the field values and order an eager build would have had —
    including empty steps, such as the one a raising production leaves
    behind.  The aggregates (:attr:`num_firings`, :meth:`parallelism_profile`,
    :meth:`firing_counts`) read the log directly.  The log holds the
    caller's ``binding`` dict, which must not be mutated after recording;
    each materialized record gets its own copy.
    """

    def __init__(self) -> None:
        self._num_steps = 0
        self._log: List[_LogEntry] = []
        self._steps: List[StepRecord] = []
        self._materialized = 0  # log entries already in ``_steps``

    # -- recording ------------------------------------------------------------
    def begin_step(self) -> int:
        """Open the next step; returns its number, to pass to :meth:`record`."""
        step = self._num_steps
        self._num_steps = step + 1
        return step

    def record(
        self,
        step: int,
        reaction: str,
        consumed: Sequence[Element],
        produced: Sequence[Element],
        binding: Optional[Dict[str, Any]] = None,
        times: int = 1,
    ) -> None:
        """Append one firing (of multiplicity ``times``) to step ``step``."""
        self._log.append((step, reaction, tuple(consumed), tuple(produced), binding, times))

    # -- queries ------------------------------------------------------------------
    @property
    def steps(self) -> List[StepRecord]:
        """Per-step records, built from the log on read."""
        steps = self._steps
        while len(steps) < self._num_steps:
            steps.append(StepRecord(step=len(steps)))
        log = self._log
        for index in range(self._materialized, len(log)):
            step, reaction, consumed, produced, binding, times = log[index]
            steps[step].firings.append(
                FiringRecord(
                    step=step,
                    reaction=reaction,
                    consumed=consumed,
                    produced=produced,
                    binding=dict(binding or {}),
                    times=times,
                )
            )
        self._materialized = len(log)
        return steps

    @property
    def num_steps(self) -> int:
        return self._num_steps

    @property
    def num_firings(self) -> int:
        return sum(entry[5] for entry in self._log)

    def firings(self) -> List[FiringRecord]:
        """All firing records in order (one per distinct firing decision;
        a record of multiplicity ``times`` stands for that many firings)."""
        out: List[FiringRecord] = []
        for step in self.steps:
            out.extend(step.firings)
        return out

    def firings_of(self, reaction: str) -> List[FiringRecord]:
        """All firings of a particular reaction."""
        return [f for f in self.firings() if f.reaction == reaction]

    def parallelism_profile(self) -> List[int]:
        """Reactions fired per step (the Gamma-side parallelism profile)."""
        widths = [0] * self._num_steps
        for entry in self._log:
            widths[entry[0]] += entry[5]
        return [width for width in widths if width > 0]

    def max_parallelism(self) -> int:
        profile = self.parallelism_profile()
        return max(profile) if profile else 0

    def average_parallelism(self) -> float:
        profile = self.parallelism_profile()
        if not profile:
            return 0.0
        return sum(profile) / len(profile)

    def firing_counts(self) -> Dict[str, int]:
        """Reaction name -> number of firings."""
        counts: Dict[str, int] = {}
        for entry in self._log:
            counts[entry[1]] = counts.get(entry[1], 0) + entry[5]
        return counts

    def reuse_statistics(self) -> Dict[str, int]:
        """Counts for the trace-reuse analysis.

        Returns a dict with ``total`` firings, ``unique`` signatures and
        ``reusable`` (= total - unique) firings that a DF-DTM-style
        memoization cache would have skipped.
        """
        unique = len({f.signature() for f in self.firings()})
        total = self.num_firings
        return {"total": total, "unique": unique, "reusable": total - unique}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(steps={self.num_steps}, firings={self.num_firings})"
