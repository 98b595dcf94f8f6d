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

    Recording is columnar: :meth:`begin_step` bumps a counter and
    :meth:`record` appends the firing's step, reaction name, binding and
    multiplicity to one list per field, and its consumed then produced
    elements to one element list shared by all firings (two offset columns
    mark where each firing's elements end).  A recorded firing therefore
    adds list slots only, no object of its own for the cyclic garbage
    collector to traverse.  The
    :class:`StepRecord` / :class:`FiringRecord` views (:attr:`steps`,
    :meth:`firings`) are materialized when first read and extended by later
    reads, with the field values and order an eager build would have had —
    including empty steps, such as the one a raising production leaves
    behind.  The aggregates (:attr:`num_firings`, :meth:`parallelism_profile`,
    :meth:`firing_counts`) read the columns directly.  The log holds the
    caller's ``binding`` dict, which must not be mutated after recording;
    each materialized record gets its own copy.
    """

    def __init__(self) -> None:
        self._num_steps = 0
        # One entry per recorded firing in each column.
        self._step_of: List[int] = []
        self._reaction_of: List[str] = []
        self._binding_of: List[Optional[Dict[str, Any]]] = []
        self._times_of: List[int] = []
        self._consumed_end: List[int] = []  # offset in ``_elements``
        self._produced_end: List[int] = []  # offset in ``_elements``
        self._elements: List[Element] = []
        self._steps: List[StepRecord] = []
        self._materialized = 0  # firings already in ``_steps``

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
        elements = self._elements
        elements.extend(consumed)
        self._consumed_end.append(len(elements))
        elements.extend(produced)
        self._produced_end.append(len(elements))
        self._step_of.append(step)
        self._reaction_of.append(reaction)
        self._binding_of.append(binding)
        self._times_of.append(times)

    # -- queries ------------------------------------------------------------------
    @property
    def steps(self) -> List[StepRecord]:
        """Per-step records, built from the columns on read."""
        steps = self._steps
        while len(steps) < self._num_steps:
            steps.append(StepRecord(step=len(steps)))
        elements = self._elements
        produced_end = self._produced_end
        start = produced_end[self._materialized - 1] if self._materialized else 0
        for index in range(self._materialized, len(produced_end)):
            step = self._step_of[index]
            mid = self._consumed_end[index]
            end = produced_end[index]
            steps[step].firings.append(
                FiringRecord(
                    step=step,
                    reaction=self._reaction_of[index],
                    consumed=tuple(elements[start:mid]),
                    produced=tuple(elements[mid:end]),
                    binding=dict(self._binding_of[index] or {}),
                    times=self._times_of[index],
                )
            )
            start = end
        self._materialized = len(produced_end)
        return steps

    @property
    def num_steps(self) -> int:
        """Steps opened by :meth:`begin_step`, empty ones included."""
        return self._num_steps

    @property
    def num_firings(self) -> int:
        """Firings recorded, each record weighted by its ``times``."""
        return sum(self._times_of)

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
        for step, times in zip(self._step_of, self._times_of):
            widths[step] += times
        return [width for width in widths if width > 0]

    def max_parallelism(self) -> int:
        """The widest step's firing count (0 for an empty trace)."""
        profile = self.parallelism_profile()
        return max(profile) if profile else 0

    def average_parallelism(self) -> float:
        """Mean firings per non-empty step (0.0 for an empty trace)."""
        profile = self.parallelism_profile()
        if not profile:
            return 0.0
        return sum(profile) / len(profile)

    def firing_counts(self) -> Dict[str, int]:
        """Reaction name -> number of firings."""
        counts: Dict[str, int] = {}
        for reaction, times in zip(self._reaction_of, self._times_of):
            counts[reaction] = counts.get(reaction, 0) + times
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
