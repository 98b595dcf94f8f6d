"""Label/tag index used by the reaction-matching engine.

Reactions produced by Algorithm 1 always constrain the *label* of every
element they consume (and, when loops are present, require all consumed
elements to carry the same *tag*).  Scanning the whole multiset for every
candidate combination is quadratic and dominates execution time for converted
loop programs, so the matching engine works off the :class:`LabelTagIndex`
below: a two-level mapping ``label -> tag -> elements``.

The index stores nothing of its own.  It is a read-only *view* of a
:class:`~repro.multiset.multiset.Multiset`'s buckets, which the multiset keeps
in one store (see its module docstring, also for bucket compaction).  It can
be used in two modes:

* *snapshot*: ``LabelTagIndex(multiset)`` views a :meth:`Multiset.copy
  <repro.multiset.multiset.Multiset.copy>`, whose buckets are in from-scratch
  rebuild order;
* *attached*: :meth:`attach` views a live multiset in O(1), with no change
  listener — this is the persistent-index path the
  :class:`~repro.gamma.scheduler.ReactionScheduler` runs on.

Every bucket lists its elements in the multiset's insertion order in both
modes, so candidate order is the same whichever mode produced it.  Label and
tag *keys* of an attached view follow the live multiset's history: a key is
appended when its bucket refills, where a snapshot lists keys by their
oldest live element.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from .element import Element
from .multiset import Multiset, compaction_bound

__all__ = ["LabelTagIndex", "compaction_bound"]


class LabelTagIndex:
    """View ``label -> tag -> element -> count`` of one multiset's buckets."""

    def __init__(self, multiset: Optional[Multiset] = None) -> None:
        self._view = multiset.copy() if multiset is not None else Multiset()
        self._source: Optional[Multiset] = None

    # -- maintenance ------------------------------------------------------------
    def rebuild(self, multiset: Multiset) -> None:
        """Re-index ``multiset`` (a no-op while attached to it).

        Any other multiset detaches the index and makes it a snapshot of
        ``multiset``.
        """
        if multiset is not self._source:
            self._source = None
            self._view = multiset.copy()

    def attach(self, multiset: Multiset) -> "LabelTagIndex":
        """View ``multiset`` live, in O(1); call :meth:`detach` when done.

        Attaching twice (or while attached elsewhere) raises ``RuntimeError``.
        """
        if self._source is not None:
            raise RuntimeError("index is already attached to a multiset")
        self._view = self._source = multiset
        return self

    def detach(self) -> None:
        """Keep a snapshot of the attached multiset and stop tracking it."""
        if self._source is not None:
            self._view = self._source.copy()
            self._source = None

    @property
    def attached(self) -> bool:
        """True while the index views a live multiset."""
        return self._source is not None

    def add(self, element: Element, count: int = 1) -> None:
        """Register ``count`` additional copies of ``element``.

        Writes through to the viewed multiset — the attached one, too.
        """
        self._view.add(element, count)

    def remove(self, element: Element, count: int = 1) -> None:
        """Unregister ``count`` copies of ``element`` (``KeyError`` if absent).

        Writes through to the viewed multiset — the attached one, too.
        """
        self._view.remove(element, count)

    # -- queries ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._view)

    def labels(self) -> List[str]:
        """Labels currently present."""
        return list(self._view._by_label)

    def tags_for(self, label: str) -> List[int]:
        """Tags present among elements carrying ``label``."""
        return list(self._view._tags.get(label, ()))

    def candidates(self, label: str, tag: Optional[int] = None) -> List[Element]:
        """Distinct elements with ``label`` (and, when given, ``tag``).

        Candidates are listed in the underlying multiset's insertion order.
        """
        return list(self.iter_candidates(label, tag))

    def iter_candidates(self, label: str, tag: Optional[int] = None) -> Iterator[Element]:
        """Lazy variant of :meth:`candidates` (same order, no list allocation).

        Deterministic matchers probe only the first few candidates of a
        bucket, so yielding lazily keeps a match probe O(arity) instead of
        O(bucket size).  Callers must not mutate the multiset while the
        iterator is live.
        """
        if tag is None:
            bucket = self._view._by_label.get(label)
        else:
            bucket = self._view._tags.get(label, {}).get(tag)
        if bucket:
            yield from bucket

    def count(self, element: Element) -> int:
        """Indexed multiplicity of ``element``."""
        return self._view._counts.get(element, 0)

    # -- raw bucket access (compiled matcher) --------------------------------------
    def label_tag_buckets(self) -> Dict[str, Dict[int, Dict[Element, int]]]:
        """The live ``label -> tag -> element -> count`` mapping.

        Exposed for the compiled reaction matcher, which iterates buckets
        directly instead of going through :meth:`candidates`.  The mapping is
        *live* (not a copy): callers must not mutate it, and must not mutate
        the multiset while iterating — the same discipline the scheduler
        already imposes between probe calls.
        """
        return self._view._tags

    def label_buckets(self) -> Dict[str, Dict[Element, int]]:
        """The live tag-agnostic ``label -> element -> count`` mapping.

        Bucket iteration order equals :meth:`candidates` order (multiset
        insertion order).  Same liveness caveats as :meth:`label_tag_buckets`.
        """
        return self._view._by_label

    def common_tags(self, labels: Iterable[str]) -> Set[int]:
        """Tags that have at least one element for *every* label in ``labels``.

        This is the key pruning step for converted loop programs: a reaction
        consuming labels ``B13`` and ``B15`` can only fire for tags where both
        labels are populated.
        """
        labels = list(labels)
        if not labels:
            return set()
        tags_by_label = self._view._tags
        result: Optional[Set[int]] = None
        for label in labels:
            tags = set(tags_by_label.get(label, ()))
            result = tags if result is None else (result & tags)
            if not result:
                return set()
        return result or set()

    def as_dict(self) -> Dict[str, Dict[int, Dict[Element, int]]]:
        """Plain-dict snapshot ``label -> tag -> element -> count`` (for tests)."""
        return {
            label: {tag: dict(bucket) for tag, bucket in tags.items()}
            for label, tags in self._view._tags.items()
        }
