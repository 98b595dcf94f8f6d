"""Columnar multiset storage: per-label parallel arrays behind the object model.

The object :class:`~repro.multiset.multiset.Multiset` keeps one dict
entry per distinct :class:`~repro.multiset.element.Element`; every guard
probe of the compiled matchers therefore walks Python objects one by one.
This module provides the storage half of the vectorized execution path
(:mod:`repro.gamma.vectorized`): a :class:`ColumnarStore` mirrors a multiset
as **per-label buckets of parallel arrays** —

* ``values``/``tags``/``counts`` — ``array('q')`` columns (64-bit ints, one
  slot per distinct element, append-only).  When numpy is importable the
  sweeps view these columns zero-copy through ``numpy.frombuffer``; without
  numpy the same columns are scanned scalar-wise, so numpy stays a purely
  optional extra and the stored state is identical either way.  numpy is
  imported lazily, by the first sweep that asks :func:`numpy_or_none` for
  it, so importing this module (every shard server does) costs no numpy.
* ``elements`` — the slot -> :class:`Element` objects, preserving the exact
  value objects (``True`` vs ``1``, non-int payloads) so conversion back to
  a :class:`Multiset` is lossless.
* ``seqs`` — a store-wide monotone insertion sequence per slot, preserving
  the multiset's observable dict insertion order across buckets.

Slots are **tombstoned, never reused**: a count that returns to zero stays a
dead slot, and re-adding the same element appends a fresh slot at the tail —
exactly mirroring dict key deletion + re-insertion, which seeded
schedulers observe through bucket enumeration order.  Buckets whose elements
are not machine-int shaped (non-int values, magnitudes beyond ``±2**31``)
remain fully usable as storage but are flagged non-``vectorizable`` so the
execution kernels fall back to the object path for them.

A store is either *detached* (a snapshot built by :meth:`from_multiset`, the
mode the sequential drain kernel uses) or *attached* to a live multiset via
its change-notification stream (:meth:`attach`), which keeps the columns
fresh across supersteps and migrations without rebuilds.

The module also owns the sharded runtime's **column-batch wire format**
(:func:`to_column_batch` / :func:`from_column_batch`): element batches cross
process boundaries as four parallel lists instead of per-element quads.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .element import Element
from .multiset import Multiset

__all__ = [
    "ColumnarBucket",
    "ColumnarStore",
    "numpy_or_none",
    "to_column_batch",
    "from_column_batch",
    "column_batch_copies",
    "ColumnBatch",
]

#: The numpy module, ``None`` for the pure-Python fallback, or ``_UNRESOLVED``
#: until :func:`numpy_or_none` first runs.  Assigning ``None`` here is the
#: test seam that forces the fallback; restoring the saved value undoes it.
_UNRESOLVED: Any = object()
_np: Any = _UNRESOLVED


def numpy_or_none():
    """The numpy module when available (and not disabled), else ``None``.

    numpy is imported on the first call, not when this module is imported:
    only the columnar kernels use it, so a process that never sweeps (the
    sequential engine, a shard server) never pays for it.  The vectorized
    kernels call this at use time rather than importing numpy themselves, so
    a single seam (monkeypatching this module's ``_np`` to ``None``, or
    setting ``REPRO_NO_NUMPY=1`` before the first call) switches the whole
    stack to the pure-Python fallback.
    """
    global _np
    if _np is _UNRESOLVED:
        _np = None
        if os.environ.get("REPRO_NO_NUMPY", "") in ("", "0"):
            try:
                import numpy as _np
            except ImportError:  # pragma: no cover - numpy-less environments
                pass
    return _np


#: Values/tags a bucket may hold while staying vectorizable.  The bound keeps
#: every *supported* guard expression (see ``repro.gamma.vectorized``) inside
#: int64 during mask arithmetic; larger payloads demote the bucket to
#: object-path storage, they are never an error.
VECTOR_INT_BOUND = 2**31

#: Wire form of an element batch: ``(values, labels, tags, counts)`` parallel
#: lists.  Same information as a list of quads, but the column shape pickles
#: leaner and decodes bucket-at-a-time.
ColumnBatch = Tuple[List[Any], List[str], List[int], List[int]]


def _int_in_bound(value: Any) -> bool:
    """True when ``value`` is a plain int (or bool) within the vector bound."""
    return (
        isinstance(value, int)
        and -VECTOR_INT_BOUND <= value <= VECTOR_INT_BOUND
    )


class ColumnarBucket:
    """One label's slots: parallel columns plus the object-side mirrors.

    ``values``/``tags``/``counts`` are parallel ``array('q')`` columns;
    ``elements``/``seqs`` are parallel Python lists.  ``slot_of`` maps a live
    element's ``(value, tag)`` key to its slot — within one bucket the label
    is fixed, so that pair identifies the element (``True`` and ``1`` collide
    by design: the corresponding elements compare equal).  ``live_head`` is a
    monotone lower bound on the first live slot, letting sweeps skip the
    tombstoned prefix.
    """

    __slots__ = (
        "label",
        "values",
        "tags",
        "counts",
        "elements",
        "seqs",
        "slot_of",
        "live_slots",
        "live_copies",
        "live_head",
        "vectorizable",
        "merge_log",
    )

    def __init__(self, label: str) -> None:
        self.label = label
        self.values = array("q")
        self.tags = array("q")
        self.counts = array("q")
        self.elements: List[Element] = []
        self.seqs: List[int] = []
        self.slot_of: Dict[Tuple[Any, int], int] = {}
        self.live_slots = 0
        self.live_copies = 0
        self.live_head = 0
        self.vectorizable = True
        #: Slots whose count increased after creation (merge events); the
        #: sequential kernel consumes this as its revival log.
        self.merge_log: List[int] = []

    def __len__(self) -> int:
        return len(self.elements)

    def append(self, element: Element, count: int, seq: int) -> int:
        """Append a fresh slot for ``element``; returns the slot index.

        Non-machine-int payloads are stored as column zeros (the object is in
        ``elements``) and permanently demote the bucket from vectorizable.
        """
        slot = len(self.elements)
        value = element.value
        if _int_in_bound(value) and element.tag <= VECTOR_INT_BOUND:
            self.values.append(value)
            self.tags.append(element.tag)
        else:
            self.vectorizable = False
            self.values.append(0)
            self.tags.append(min(element.tag, VECTOR_INT_BOUND))
        self.counts.append(count)
        self.elements.append(element)
        self.seqs.append(seq)
        self.slot_of[(value, element.tag)] = slot
        self.live_slots += 1
        self.live_copies += count
        return slot

    def merge(self, slot: int, count: int) -> None:
        """Add ``count`` copies to a live slot (position is preserved)."""
        self.counts[slot] += count
        self.live_copies += count
        self.merge_log.append(slot)

    def shrink(self, slot: int, count: int) -> bool:
        """Remove ``count`` copies from a live slot; True when it died."""
        remaining = self.counts[slot] - count
        self.counts[slot] = remaining
        self.live_copies -= count
        if remaining <= 0:
            element = self.elements[slot]
            del self.slot_of[(element.value, element.tag)]
            self.live_slots -= 1
            return True
        return False

    def advance_live_head(self) -> int:
        """Advance (and return) the first-live-slot lower bound."""
        counts = self.counts
        head = self.live_head
        end = len(counts)
        while head < end and counts[head] <= 0:
            head += 1
        self.live_head = head
        return head

    def live_items(self) -> List[Tuple[Element, int]]:
        """Live ``(element, count)`` pairs in slot (= insertion) order."""
        counts = self.counts
        return [
            (element, counts[slot])
            for slot, element in enumerate(self.elements)
            if counts[slot] > 0
        ]

    def values_view(self):
        """Zero-copy numpy views ``(values, tags, counts)`` of the columns.

        Views must be re-taken after any append (the underlying buffer may
        have been reallocated); returns ``None`` without numpy.
        """
        np_ = numpy_or_none()
        if np_ is None:
            return None
        return (
            np_.frombuffer(self.values, dtype=np_.int64),
            np_.frombuffer(self.tags, dtype=np_.int64),
            np_.frombuffer(self.counts, dtype=np_.int64),
        )


class ColumnarStore:
    """A multiset mirrored as per-label-bucket parallel arrays.

    Lossless in both directions: :meth:`from_multiset` / :meth:`to_multiset`
    round-trip counts, labels, the exact element objects, *and* every
    observable ordering (global dict insertion order via per-slot
    sequence numbers; per-label bucket order; label-bucket creation order via
    per-label streak sequences).  See the module docstring for the slot
    discipline.
    """

    def __init__(self) -> None:
        self.buckets: Dict[str, ColumnarBucket] = {}
        #: label -> streak sequence: insertion-ordered like
        #: ``Multiset._by_label`` — an entry is deleted when its last copy
        #: dies and re-appended when the label refills, so iteration order
        #: tracks the object container's bucket creation order.
        self.label_streaks: Dict[str, int] = {}
        self._seq = 0
        self.size = 0
        self._multiset: Optional[Multiset] = None
        self._listener = None

    # -- construction / conversion -------------------------------------------------
    @classmethod
    def from_multiset(cls, multiset: Multiset) -> "ColumnarStore":
        """Detached columnar snapshot of ``multiset`` (insertion order kept)."""
        store = cls()
        for element, count in multiset.counts().items():
            store.add(element, count)
        return store

    def to_multiset(self) -> Multiset:
        """Rebuild an equivalent object :class:`Multiset` (lossless)."""
        result = Multiset()
        for element, count in self.live_pairs():
            result.add(element, count)
        return result

    def live_pairs(self) -> List[Tuple[Element, int]]:
        """Live ``(element, count)`` pairs in global insertion (seq) order."""
        pairs: List[Tuple[int, Element, int]] = []
        for bucket in self.buckets.values():
            counts = bucket.counts
            seqs = bucket.seqs
            for slot, element in enumerate(bucket.elements):
                if counts[slot] > 0:
                    pairs.append((seqs[slot], element, counts[slot]))
        pairs.sort(key=lambda item: item[0])
        return [(element, count) for _, element, count in pairs]

    # -- attachment ----------------------------------------------------------------
    def attach(self, multiset: Multiset) -> None:
        """Mirror ``multiset`` and follow its change notifications."""
        if self._multiset is not None:
            raise RuntimeError("store is already attached")
        for element, count in multiset.counts().items():
            self.add(element, count)
        self._multiset = multiset
        self._listener = multiset.subscribe(self._on_change)

    def detach(self) -> None:
        """Stop following the attached multiset (idempotent)."""
        if self._multiset is not None:
            self._multiset.unsubscribe(self._listener)
            self._multiset = None
            self._listener = None

    def _on_change(self, element: Element, delta: int) -> None:
        if delta > 0:
            self.add(element, delta)
        elif delta < 0:
            self.remove(element, -delta)

    # -- mutation ------------------------------------------------------------------
    def bucket_for(self, label: str) -> ColumnarBucket:
        """The label's bucket, created on first use."""
        bucket = self.buckets.get(label)
        if bucket is None:
            bucket = self.buckets[label] = ColumnarBucket(label)
        return bucket

    def add(self, element: Element, count: int = 1) -> Tuple[ColumnarBucket, int, bool]:
        """Add ``count`` copies; returns ``(bucket, slot, appended)``.

        A live slot for an equal element merges in place (its position is
        preserved, like incrementing a live dict key); otherwise a new
        slot is appended at the tail (like dict key re-insertion).
        """
        bucket = self.bucket_for(element.label)
        refill = bucket.live_copies == 0
        slot = bucket.slot_of.get((element.value, element.tag))
        if slot is not None:
            bucket.merge(slot, count)
            appended = False
        else:
            slot = bucket.append(element, count, self._next_seq())
            appended = True
        self.size += count
        if refill:
            self.label_streaks.pop(element.label, None)
            self.label_streaks[element.label] = self._next_seq()
        return bucket, slot, appended

    def remove(self, element: Element, count: int = 1) -> Tuple[ColumnarBucket, int, bool]:
        """Remove ``count`` copies; returns ``(bucket, slot, died)``."""
        bucket = self.buckets[element.label]
        slot = bucket.slot_of[(element.value, element.tag)]
        died = bucket.shrink(slot, count)
        self.size -= count
        if bucket.live_copies == 0:
            del self.label_streaks[element.label]
        return bucket, slot, died

    def remove_slot(self, bucket: ColumnarBucket, slot: int, count: int = 1) -> bool:
        """Slot-direct :meth:`remove` for callers that already hold the slot.

        The execution kernels consume elements they just matched — the slot
        is in hand, so the label and ``slot_of`` lookups of :meth:`remove`
        are pure overhead at firing rates.  Returns ``True`` when the slot
        died.
        """
        died = bucket.shrink(slot, count)
        self.size -= count
        if bucket.live_copies == 0:
            del self.label_streaks[bucket.label]
        return died

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- queries -------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def labels(self) -> List[str]:
        """Labels with live elements, in bucket-streak (creation) order."""
        return list(self.label_streaks.keys())

    def label_buckets(self) -> Dict[str, Dict[Element, int]]:
        """Live content as ``{label: {element: count}}`` dicts.

        The raw-bucket shape of
        :meth:`~repro.multiset.index.LabelTagIndex.label_buckets`, so code
        written against the index's accessors can read a columnar store
        unchanged.  Labels follow streak order; elements follow slot order
        (both match the incrementally maintained object containers).
        """
        return {
            label: dict(self.buckets[label].live_items())
            for label in self.label_streaks
        }

    def counts(self) -> Dict[Element, int]:
        """Live ``{element: count}`` in global insertion order."""
        return dict(self.live_pairs())

    def vectorizable_labels(self) -> List[str]:
        """Live labels whose buckets are int-shaped (kernel-eligible)."""
        return [
            label
            for label in self.label_streaks
            if self.buckets[label].vectorizable
        ]

    # -- exact object-state reconstruction -----------------------------------------
    def sync_into(self, multiset: Multiset) -> None:
        """Overwrite ``multiset``'s state in place to match this store exactly.

        Used by the sequential drain kernel when it hands control back to the
        object path: the kernel mutates only the store, then rewrites the
        multiset's element, label and tag buckets — including the orderings
        seeded schedulers can observe (global key order from slot sequences,
        per-label bucket order, label-bucket streak order) — without
        emitting change notifications.  Views of the multiset (the
        scheduler's index) see the new state at once; callers must re-arm
        any other observers themselves (the kernel clears the scheduler's
        parked set).
        """
        multiset._reset()
        for label in self.label_streaks:
            multiset._by_label[label] = {}
            multiset._tags[label] = {}
        put = multiset._put
        for element, count in self.live_pairs():
            put(element, count)


# -- sharded wire format -------------------------------------------------------------
def to_column_batch(pairs: Sequence[Tuple[Element, int]]) -> ColumnBatch:
    """Encode ``(element, count)`` pairs as four parallel columns.

    The batched-exchange wire format of the sharded backends: same
    information as per-element quads, shipped as arrays-of-columns instead of
    arrays-of-tuples (leaner pickles, bucket-at-a-time decode).
    """
    values: List[Any] = []
    labels: List[str] = []
    tags: List[int] = []
    counts: List[int] = []
    for element, count in pairs:
        values.append(element.value)
        labels.append(element.label)
        tags.append(element.tag)
        counts.append(count)
    return values, labels, tags, counts


def from_column_batch(batch: ColumnBatch) -> List[Tuple[Element, int]]:
    """Decode a column batch back into ``(element, count)`` pairs."""
    values, labels, tags, counts = batch
    return [
        (Element(value=value, label=label, tag=tag), count)
        for value, label, tag, count in zip(values, labels, tags, counts)
    ]


def column_batch_copies(batch: ColumnBatch) -> int:
    """Total element copies carried by a column batch."""
    return sum(batch[3])
