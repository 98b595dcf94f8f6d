"""Label/tag indexes used by the reaction-matching engine.

Reactions produced by Algorithm 1 always constrain the *label* of every
element they consume (and, when loops are present, require all consumed
elements to carry the same *tag*).  Scanning the whole multiset for every
candidate combination is quadratic and dominates execution time for converted
loop programs, so the matching engine works off the :class:`LabelTagIndex`
below: a two-level dictionary ``label -> tag -> [elements]`` maintained
incrementally alongside the multiset.

The index is deliberately decoupled from :class:`~repro.multiset.multiset.Multiset`
(which only indexes by label).  It can be used in two modes:

* *snapshot*: built once from a multiset (``LabelTagIndex(multiset)``) and
  discarded, as the pre-scheduler engines did once per step;
* *attached*: :meth:`attach` subscribes the index to the multiset's change
  notifications, after which every ``add``/``remove``/``replace`` on the
  multiset is mirrored incrementally — this is the persistent-index path the
  :class:`~repro.gamma.scheduler.ReactionScheduler` runs on.

Incremental maintenance preserves the exact bucket ordering a from-scratch
rebuild would produce (both follow the multiset's own insertion order), so the
two modes are interchangeable even for seeded, order-sensitive schedulers.

Buckets are plain dicts, and a firing deletes keys near a bucket's front and
appends its products at the back.  CPython leaves each deleted key as a hole
that every later ``for e in bucket`` skips one by one, and only a resize on
insertion clears them — so without help a long fold's first-match probes
re-walk one hole per earlier firing.  The index therefore counts the keys
deleted from each label's buckets and, once the count exceeds
:func:`compaction_bound` of the label's size, rebuilds that label's buckets
with ``dict(bucket)``: an order-preserving copy, so candidate order (and every
schedule drawn from it) is unchanged, at amortized O(1) per deletion.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set

from .element import Element
from .multiset import Multiset

__all__ = ["LabelTagIndex", "compaction_bound"]

#: A label's buckets are compacted once more than
#: ``COMPACT_SLACK + size // COMPACT_DIVISOR`` keys were deleted from them
#: since the last compaction (``size`` = the label's distinct elements).
COMPACT_SLACK = 64
COMPACT_DIVISOR = 16


def compaction_bound(size: int) -> int:
    """Deleted keys a label with ``size`` distinct elements may carry."""
    return COMPACT_SLACK + size // COMPACT_DIVISOR


class LabelTagIndex:
    """Incremental index ``label -> tag -> list of (element, multiplicity)``."""

    def __init__(self, multiset: Optional[Multiset] = None) -> None:
        # label -> tag -> element -> count
        self._index: Dict[str, Dict[int, Dict[Element, int]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        # label -> element -> count, in multiset insertion order.  Serves the
        # tag-agnostic queries: grouping by tag would reorder aggregated
        # candidate lists relative to a from-scratch rebuild, which the
        # seeded (shuffling) schedulers would observe.
        self._flat: Dict[str, Dict[Element, int]] = {}
        # label -> keys deleted from its buckets since they were last built.
        self._deleted: Dict[str, int] = {}
        self._size = 0
        self._source: Optional[Multiset] = None
        self._listener = None
        if multiset is not None:
            self.rebuild(multiset)

    # -- maintenance ------------------------------------------------------------
    def rebuild(self, multiset: Multiset) -> None:
        """Discard the current contents and re-index ``multiset``."""
        self._index.clear()
        self._flat.clear()
        self._deleted.clear()
        self._size = 0
        on_change = self._on_change
        for element, count in multiset.counts().items():
            on_change(element, count)

    def attach(self, multiset: Multiset) -> "LabelTagIndex":
        """Bind this index to ``multiset`` and keep it in sync incrementally.

        The index is rebuilt once, then maintained through the multiset's
        change notifications; call :meth:`detach` when done.  Attaching twice
        (or while attached elsewhere) raises ``RuntimeError``.
        """
        if self._source is not None:
            raise RuntimeError("index is already attached to a multiset")
        self.rebuild(multiset)
        self._source = multiset
        self._listener = multiset.subscribe(self._on_change)
        return self

    def detach(self) -> None:
        """Stop tracking the attached multiset (no-op when not attached)."""
        if self._source is not None:
            self._source.unsubscribe(self._listener)
            self._source = None
            self._listener = None

    @property
    def attached(self) -> bool:
        """True while the index mirrors a live multiset."""
        return self._source is not None

    def _on_change(self, element: Element, delta: int) -> None:
        # The one maintenance path: add()/remove() validate their arguments
        # and delegate here, and multiset notifications come straight in (the
        # multiset already validated the mutation it is notifying about).  This
        # runs once per element copy touched by every engine firing — or once
        # per *distinct* element per phase under the batched notifications of
        # ``Multiset.rewrite_batch_unchecked``, whose aggregated ``delta``
        # magnitudes the add/remove branches below absorb unchanged.
        if delta == 0:
            return
        label = element.label
        if delta > 0:
            bucket = self._index[label][element.tag]
            bucket[element] = bucket.get(element, 0) + delta
            flat = self._flat.setdefault(label, {})
            flat[element] = flat.get(element, 0) + delta
            self._size += delta
            return
        count = -delta
        tags = self._index[label]
        bucket = tags[element.tag]
        have = bucket[element]
        if have == count:
            del bucket[element]
            if not bucket:
                del tags[element.tag]
                if not tags:
                    del self._index[label]
        else:
            bucket[element] = have - count
        flat = self._flat[label]
        if flat[element] == count:
            del flat[element]
            if flat:
                deleted = self._deleted.get(label, 0) + 1
                # compaction_bound(len(flat)), inlined: this runs per deleted key.
                if deleted > COMPACT_SLACK + len(flat) // COMPACT_DIVISOR:
                    self._compact(label)
                else:
                    self._deleted[label] = deleted
            else:
                del self._flat[label]
                self._deleted.pop(label, None)
        else:
            flat[element] -= count
        self._size -= count

    def _compact(self, label: str) -> None:
        """Rebuild ``label``'s buckets without the holes deleted keys left."""
        self._flat[label] = dict(self._flat[label])
        tags = self._index[label]
        for tag, bucket in list(tags.items()):
            tags[tag] = dict(bucket)
        self._deleted[label] = 0

    def add(self, element: Element, count: int = 1) -> None:
        """Register ``count`` additional copies of ``element``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._on_change(element, count)

    def remove(self, element: Element, count: int = 1) -> None:
        """Unregister ``count`` copies of ``element``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        tags = self._index.get(element.label)
        if not tags or element.tag not in tags or element not in tags[element.tag]:
            raise KeyError(f"element not indexed: {element!r}")
        have = tags[element.tag][element]
        if have < count:
            raise KeyError(f"cannot remove {count} x {element!r}: only {have} indexed")
        self._on_change(element, -count)

    # -- queries ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def labels(self) -> List[str]:
        """Labels currently present."""
        return list(self._index.keys())

    def tags_for(self, label: str) -> List[int]:
        """Tags present among elements carrying ``label``."""
        return list(self._index.get(label, {}).keys())

    def candidates(self, label: str, tag: Optional[int] = None) -> List[Element]:
        """Distinct elements with ``label`` (and, when given, ``tag``).

        Candidates are listed in the underlying multiset's insertion order,
        whether the index was built from scratch or maintained incrementally.
        """
        if tag is None:
            flat = self._flat.get(label)
            return list(flat.keys()) if flat else []
        tags = self._index.get(label)
        if not tags:
            return []
        bucket = tags.get(tag)
        return list(bucket.keys()) if bucket else []

    def iter_candidates(self, label: str, tag: Optional[int] = None) -> Iterator[Element]:
        """Lazy variant of :meth:`candidates` (same order, no list allocation).

        Deterministic matchers probe only the first few candidates of a
        bucket, so yielding lazily keeps a match probe O(arity) instead of
        O(bucket size).  Callers must not mutate the multiset/index while the
        iterator is live.
        """
        if tag is None:
            flat = self._flat.get(label)
            if flat:
                yield from flat.keys()
            return
        tags = self._index.get(label)
        if not tags:
            return
        bucket = tags.get(tag)
        if bucket:
            yield from bucket.keys()

    def count(self, element: Element) -> int:
        """Indexed multiplicity of ``element``."""
        return self._index.get(element.label, {}).get(element.tag, {}).get(element, 0)

    # -- raw bucket access (compiled matcher) --------------------------------------
    def label_tag_buckets(self) -> Dict[str, Dict[int, Dict[Element, int]]]:
        """The live ``label -> tag -> element -> count`` mapping.

        Exposed for the compiled reaction matcher, which iterates buckets
        directly instead of going through :meth:`candidates`.  The mapping is
        *live* (not a copy): callers must not mutate it, and must not mutate
        the multiset while iterating — the same discipline the scheduler
        already imposes between probe calls.
        """
        return self._index

    def label_buckets(self) -> Dict[str, Dict[Element, int]]:
        """The live tag-agnostic ``label -> element -> count`` mapping.

        Bucket iteration order equals :meth:`candidates` order (multiset
        insertion order).  Same liveness caveats as :meth:`label_tag_buckets`.
        """
        return self._flat

    def common_tags(self, labels: Iterable[str]) -> Set[int]:
        """Tags that have at least one element for *every* label in ``labels``.

        This is the key pruning step for converted loop programs: a reaction
        consuming labels ``B13`` and ``B15`` can only fire for tags where both
        labels are populated.
        """
        labels = list(labels)
        if not labels:
            return set()
        result: Optional[Set[int]] = None
        for label in labels:
            tags = set(self._index.get(label, {}).keys())
            result = tags if result is None else (result & tags)
            if not result:
                return set()
        return result or set()

    def as_dict(self) -> Dict[str, Dict[int, Dict[Element, int]]]:
        """Plain-dict snapshot ``label -> tag -> element -> count`` (for tests)."""
        return {
            label: {tag: dict(bucket) for tag, bucket in tags.items()}
            for label, tags in self._index.items()
        }
