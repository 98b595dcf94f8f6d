"""Counted multiset container.

The Gamma model operates on a single shared *multiset* (the "chemical
solution").  Reactions remove a sub-multiset of elements satisfying their
condition and insert the elements produced by their action:

    Gamma((R1, A1), ..., (Rm, Am))(M) =
        if no Ri is satisfiable on M: M
        else: Gamma(...)((M - {x1..xn}) + Ai(x1..xn))

This module provides the counted container that supports those operations
efficiently: constant-time membership counting, removal/insertion, snapshots
used by the simulated-parallel scheduler, and a small algebra (union, sum,
difference) used by the equivalence checker and tests.

The container is the **one store** of element counts.  It keeps them in three
plain dicts that always hold the same counts — by element, by label, and by
label and tag — so the reaction scheduler's
:class:`~repro.multiset.index.LabelTagIndex` is a view of these buckets, not a
second copy maintained through change notifications.

Buckets are plain dicts, and a firing deletes keys near a bucket's front and
appends its products at the back.  CPython leaves each deleted key as a hole
that every later ``for e in bucket`` skips one by one, and only a resize on
insertion clears them — so without help a long fold's first-match probes
re-walk one hole per earlier firing.  The multiset therefore counts the keys
deleted from each label's buckets and, once the count exceeds
:func:`compaction_bound` of the label's size, rebuilds that label's buckets
with ``dict(bucket)``: an order-preserving copy, so candidate order (and every
schedule drawn from it) is unchanged, at amortized O(1) per deletion.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .element import Element, make_elements

__all__ = ["Multiset", "ChangeListener", "compaction_bound"]

#: A change-notification callback: ``listener(element, delta)`` is invoked
#: after ``delta`` copies of ``element`` were inserted (``delta > 0``) or
#: removed (``delta < 0``).
ChangeListener = Callable[[Element, int], None]

#: A label's buckets are compacted once more than
#: ``COMPACT_SLACK + size // COMPACT_DIVISOR`` keys were deleted from them
#: since the last compaction (``size`` = the label's distinct elements).
COMPACT_SLACK = 64
COMPACT_DIVISOR = 16


def compaction_bound(size: int) -> int:
    """Deleted keys a label with ``size`` distinct elements may carry."""
    return COMPACT_SLACK + size // COMPACT_DIVISOR


def _first_appearance(keys: Iterable[Any], distinct: int) -> Dict[Any, None]:
    """The first ``distinct`` distinct ``keys`` in order of first appearance
    (stops reading ``keys`` as soon as it has them all)."""
    order: Dict[Any, None] = {}
    for key in keys:
        if key not in order:
            order[key] = None
            if len(order) == distinct:
                break
    return order


class Multiset:
    """A counted multiset of :class:`~repro.multiset.element.Element`.

    Counts live in three plain dicts, kept equal by one private insert/remove
    pair (:meth:`_put` / :meth:`_take`) that every mutator goes through:

    * ``_counts``: ``element -> count``, in global insertion order;
    * ``_by_label``: ``label -> element -> count``;
    * ``_tags``: ``label -> tag -> element -> count``.

    Every bucket lists its elements in global insertion order.  The label
    buckets are what makes reaction matching tractable for the converted
    dataflow programs, where conditions always constrain element labels;
    :class:`~repro.multiset.index.LabelTagIndex` reads them in place.

    External observers (the scheduler's dirty-label set, the columnar
    mirror) can :meth:`subscribe` a callback that is invoked after every
    mutation.
    """

    __slots__ = ("_counts", "_by_label", "_tags", "_holes", "_size", "_listeners")

    def __init__(self, elements: Optional[Iterable] = None) -> None:
        self._counts: Dict[Element, int] = {}
        self._by_label: Dict[str, Dict[Element, int]] = {}
        self._tags: Dict[str, Dict[int, Dict[Element, int]]] = {}
        # label -> keys deleted from its buckets since they were last built.
        self._holes: Dict[str, int] = {}
        self._size = 0
        self._listeners: Tuple[ChangeListener, ...] = ()
        if elements is not None:
            for element in make_elements(elements):
                self._put(element, 1)

    # -- the one store ------------------------------------------------------------
    def _put(self, element: Element, count: int) -> None:
        """Insert ``count`` copies into every store (no validation, no notice)."""
        counts = self._counts
        total = counts.get(element, 0) + count
        counts[element] = total
        self._size += count
        label = element.label
        bucket = self._by_label.get(label)
        if bucket is None:
            self._by_label[label] = {element: total}
            self._tags[label] = {element.tag: {element: total}}
            return
        bucket[element] = total
        tags = self._tags[label]
        tagged = tags.get(element.tag)
        if tagged is None:
            tags[element.tag] = {element: total}
        else:
            tagged[element] = total

    def _take(self, element: Element, count: int) -> None:
        """Remove ``count`` copies from every store (no notice).

        Raises ``KeyError`` before touching anything when fewer than
        ``count`` copies are present.
        """
        counts = self._counts
        have = counts.get(element, 0)
        if have < count:
            raise KeyError(f"cannot remove {count} x {element!r}: only {have} present")
        self._size -= count
        label = element.label
        bucket = self._by_label[label]
        tags = self._tags[label]
        if have > count:
            left = have - count
            counts[element] = left
            bucket[element] = left
            tags[element.tag][element] = left
            return
        del counts[element]
        del bucket[element]
        tagged = tags[element.tag]
        del tagged[element]
        if not tagged:
            del tags[element.tag]
        if not bucket:
            del self._by_label[label]
            del self._tags[label]
            self._holes.pop(label, None)
            return
        holes = self._holes.get(label, 0) + 1
        # compaction_bound(len(bucket)), inlined: this runs per deleted key.
        if holes > COMPACT_SLACK + len(bucket) // COMPACT_DIVISOR:
            self._by_label[label] = dict(bucket)
            for tag, tagged in list(tags.items()):
                tags[tag] = dict(tagged)
            holes = 0
        self._holes[label] = holes

    def _reset(self) -> None:
        """Empty every store in place (views keep their references)."""
        self._counts.clear()
        self._by_label.clear()
        self._tags.clear()
        self._holes.clear()
        self._size = 0

    # -- change notification ------------------------------------------------------
    def subscribe(self, listener: ChangeListener) -> ChangeListener:
        """Register ``listener(element, delta)`` to be called after each mutation.

        ``delta`` is positive for insertions and negative for removals; a
        :meth:`replace` emits one notification per removed/added element, in
        application order.  Returns ``listener`` so it can be kept for
        :meth:`unsubscribe`.  Listeners are *not* carried over by :meth:`copy`.
        """
        self._listeners = self._listeners + (listener,)
        return listener

    def unsubscribe(self, listener: ChangeListener) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        self._listeners = tuple(cb for cb in self._listeners if cb is not listener)

    def _notify(self, element: Element, delta: int) -> None:
        for listener in self._listeners:
            listener(element, delta)

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Element]:
        """Iterate elements with multiplicity (an element of count 3 appears 3 times)."""
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def __contains__(self, element: Any) -> bool:
        element = self._coerce(element)
        return self._counts.get(element, 0) > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Multiset):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(e) for e in sorted(self._counts, key=lambda e: (e.label, e.tag, str(e.value))))
        return f"Multiset({{{inner}}})"

    @staticmethod
    def _coerce(element: Any) -> Element:
        if isinstance(element, Element):
            return element
        if isinstance(element, tuple):
            return Element.from_tuple(element)
        return Element(value=element)

    # -- mutation ---------------------------------------------------------------
    def add(self, element: Any, count: int = 1) -> None:
        """Insert ``count`` copies of ``element``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        element = self._coerce(element)
        self._put(element, count)
        if self._listeners:
            self._notify(element, count)

    def add_all(self, elements: Iterable) -> None:
        """Insert every element of ``elements`` (with multiplicity one each)."""
        for element in elements:
            self.add(element)

    def remove(self, element: Any, count: int = 1) -> None:
        """Remove ``count`` copies of ``element``.

        Raises ``KeyError`` if fewer than ``count`` copies are present; Gamma
        reactions must never consume elements that are not in the solution, so
        violations indicate a scheduler bug and are surfaced loudly.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        element = self._coerce(element)
        self._take(element, count)
        if self._listeners:
            self._notify(element, -count)

    def remove_all(self, elements: Iterable) -> None:
        """Remove every element of ``elements`` (one copy each)."""
        for element in elements:
            self.remove(element)

    def replace(self, removed: Iterable, added: Iterable) -> None:
        """Atomically apply one Gamma rewrite step: ``M := (M - removed) + added``.

        The removal is validated before anything is mutated so a failed
        replace leaves the multiset untouched.
        """
        removed = [self._coerce(e) for e in removed]
        need = Counter(removed)
        for element, count in need.items():
            if self._counts.get(element, 0) < count:
                raise KeyError(
                    f"replace would consume {count} x {element!r} "
                    f"but only {self._counts.get(element, 0)} present"
                )
        for element in removed:
            self.remove(element)
        for element in added:
            self.add(element)

    def rewrite_unchecked(self, removed: Iterable[Element], added: Iterable[Element]) -> None:
        """Apply one rewrite step without :meth:`replace`'s atomic pre-validation.

        Fast path for the compiled engine loops: the matcher has already
        verified that ``removed`` is available (that is what a match *is*), so
        the availability re-check and the coercion pass of :meth:`replace` are
        redundant.  ``removed``/``added`` must contain :class:`Element`
        instances, one copy each.  On a violation (a scheduler bug),
        ``KeyError`` is still raised, but the multiset may be left partially
        rewritten — use :meth:`replace` when inputs are untrusted.
        """
        take = self._take
        put = self._put
        listeners = self._listeners
        for element in removed:
            take(element, 1)
            for listener in listeners:
                listener(element, -1)
        for element in added:
            put(element, 1)
            for listener in listeners:
                listener(element, 1)

    def rewrite_batch_unchecked(
        self,
        removed: Union[Mapping[Element, int], Iterable[Element]],
        added: Union[Mapping[Element, int], Iterable[Element]],
    ) -> None:
        """Apply one whole *superstep* of rewrites without pre-validation.

        Batch counterpart of :meth:`rewrite_unchecked` for the parallel
        engine: ``removed``/``added`` are the consumed/produced elements of a
        set of pairwise-disjoint firings, all selected against the current
        state (so no removed element may depend on an added one) — either as
        ``{element: copies}`` mappings, the form the ``(tuple, k)`` superstep
        matches aggregate to (:func:`repro.gamma.matching.fire_batch`), or
        as plain iterables with one entry per copy, which are counted here.
        The batch is applied in two phases — all removals, then all additions
        — per distinct element in first-occurrence order, with **one change
        notification per distinct element per phase** (``delta`` is the total
        copy count) instead of one per copy.  The final counts always
        equal firing the matches one by one, and so does the key/bucket
        insertion order (which seeded schedulers observe) — *except* when one
        match consumes an element that another match of the same batch also
        produces: a sequential interleaving may then net the count above zero
        where the two-phase batch deletes and re-appends the key, moving it
        to the insertion tail.  Callers needing order-exact equivalence with
        a specific sequential interleaving must fire one by one.

        Like :meth:`rewrite_unchecked`, over-consumption raises ``KeyError``
        but may leave the multiset partially rewritten — inputs are trusted.
        """
        take = self._take
        put = self._put
        listeners = self._listeners
        removed_counts = removed if isinstance(removed, Mapping) else Counter(removed)
        for element, count in removed_counts.items():
            take(element, count)
            for listener in listeners:
                listener(element, -count)
        added_counts = added if isinstance(added, Mapping) else Counter(added)
        for element, count in added_counts.items():
            put(element, count)
            for listener in listeners:
                listener(element, count)

    def add_counts(self, pairs: Iterable[Tuple["Element", int]]) -> int:
        """Insert a batch of ``(element, count)`` pairs; returns copies added.

        The batched ingest path of cross-partition transfers and streaming
        injection: one listener notification is emitted per pair (``delta`` =
        the pair's count), so an observer absorbs a whole batch in one pass
        per distinct element instead of one per copy.
        """
        copies = 0
        for element, count in pairs:
            self.add(element, count)
            copies += count
        return copies

    def drain_labels(self, labels: Iterable[str]) -> List[Tuple[Element, int]]:
        """Remove and return every element whose label is in ``labels``.

        Returns ``(element, count)`` pairs label by label — each distinct
        label once, in first-occurrence order — and within a label in the
        multiset's insertion order.  This is the batched extraction half of
        a cross-partition transfer; feed the result to another partition's
        :meth:`add_counts`.  One change notification is emitted per distinct
        element (``delta`` = the full multiplicity).  Labels with no elements
        are skipped silently.
        """
        drained: List[Tuple[Element, int]] = []
        for label in dict.fromkeys(labels):
            bucket = self._by_label.get(label)
            if bucket:
                drained.extend(bucket.items())
        for element, count in drained:
            self._take(element, count)
            self._notify(element, -count)
        return drained

    def label_counts(self) -> Dict[str, int]:
        """Copies present per label (the shard-routing histogram).

        The mapping is a snapshot: ``{label: total copies with that label}``,
        in label insertion order.
        """
        return {
            label: sum(bucket.values()) for label, bucket in self._by_label.items()
        }

    def clear(self) -> None:
        """Remove every element."""
        removed = list(self._counts.items()) if self._listeners else []
        self._reset()
        for element, count in removed:
            self._notify(element, -count)

    # -- queries ----------------------------------------------------------------
    def count(self, element: Any) -> int:
        """Multiplicity of ``element`` (0 if absent)."""
        return self._counts.get(self._coerce(element), 0)

    def distinct(self) -> List[Element]:
        """The distinct elements (each listed once regardless of multiplicity)."""
        return list(self._counts.keys())

    def counts(self) -> Dict[Element, int]:
        """A copy of the element -> multiplicity mapping."""
        return dict(self._counts)

    def labels(self) -> List[str]:
        """The distinct labels present in the multiset."""
        return list(self._by_label.keys())

    def with_label(self, label: str) -> List[Element]:
        """Elements (with multiplicity) whose label equals ``label``."""
        bucket = self._by_label.get(label)
        if not bucket:
            return []
        out: List[Element] = []
        for element, count in bucket.items():
            out.extend([element] * count)
        return out

    def distinct_with_label(self, label: str) -> List[Element]:
        """Distinct elements whose label equals ``label``."""
        bucket = self._by_label.get(label)
        return list(bucket.keys()) if bucket else []

    def with_labels(self, labels: Iterable[str]) -> List[Element]:
        """Elements (with multiplicity) whose label is in ``labels``."""
        out: List[Element] = []
        for label in labels:
            out.extend(self.with_label(label))
        return out

    def values_with_label(self, label: str) -> List[Any]:
        """Values of the elements carrying ``label`` (with multiplicity)."""
        return [e.value for e in self.with_label(label)]

    def select(self, predicate) -> List[Element]:
        """Elements (with multiplicity) satisfying ``predicate(element)``."""
        out: List[Element] = []
        for element, count in self._counts.items():
            if predicate(element):
                out.extend([element] * count)
        return out

    def restrict_labels(self, labels: Iterable[str]) -> "Multiset":
        """New multiset containing only elements whose label is in ``labels``."""
        wanted = set(labels)
        result = Multiset()
        for element, count in self._counts.items():
            if element.label in wanted:
                result.add(element, count)
        return result

    # -- algebra ------------------------------------------------------------------
    def copy(self) -> "Multiset":
        """Deep-enough copy (elements are immutable, so counts are copied).

        Every store is copied a dict at a time, holes dropped.  Element order
        inside a bucket already is global insertion order, but a live
        multiset's label and tag *keys* follow its history (a bucket emptied
        and refilled moves to the back), so the clone keys them in a
        from-scratch rebuild's order instead: order of first appearance,
        found by scanning ``_counts`` only until every label has appeared
        and each label bucket only until every one of its tags has.
        """
        clone = Multiset()
        clone._counts = dict(self._counts)
        clone._size = self._size
        labels = _first_appearance((e.label for e in self._counts), len(self._by_label))
        for label in labels:
            bucket = self._by_label[label]
            clone._by_label[label] = dict(bucket)
            tagged = self._tags[label]
            tags = _first_appearance((e.tag for e in bucket), len(tagged))
            clone._tags[label] = {tag: dict(tagged[tag]) for tag in tags}
        return clone

    def __add__(self, other: "Multiset") -> "Multiset":
        """Multiset sum (multiplicities add)."""
        if not isinstance(other, Multiset):
            return NotImplemented
        result = self.copy()
        for element, count in other._counts.items():
            result.add(element, count)
        return result

    def __sub__(self, other: "Multiset") -> "Multiset":
        """Multiset difference (multiplicities subtract, floored at zero)."""
        if not isinstance(other, Multiset):
            return NotImplemented
        result = Multiset()
        for element, count in self._counts.items():
            keep = count - other._counts.get(element, 0)
            if keep > 0:
                result.add(element, keep)
        return result

    def isdisjoint(self, other: "Multiset") -> bool:
        """True when no element occurs in both multisets."""
        smaller, larger = (self, other) if len(self._counts) <= len(other._counts) else (other, self)
        return all(element not in larger._counts for element in smaller._counts)

    def issubset(self, other: "Multiset") -> bool:
        """True when every element occurs in ``other`` with at least this multiplicity."""
        return all(other._counts.get(e, 0) >= c for e, c in self._counts.items())

    # -- conversions ---------------------------------------------------------------
    def to_tuples(self) -> List[Tuple[Any, str, int]]:
        """Sorted list of ``(value, label, tag)`` triples (with multiplicity)."""
        triples = [e.as_tuple() for e in self]
        return sorted(triples, key=lambda t: (t[1], t[2], repr(t[0])))

    @classmethod
    def from_tuples(cls, tuples: Iterable[Tuple]) -> "Multiset":
        """Inverse of :meth:`to_tuples`."""
        return cls(tuples)
