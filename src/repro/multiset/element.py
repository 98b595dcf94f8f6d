"""Tagged multiset elements.

The Gamma translation of a dynamic dataflow graph represents every operand
(edge value) as a multiset element carrying three pieces of information:

* ``value`` -- the data itself (any hashable/comparable Python value; the
  paper's examples use integers and booleans encoded as 0/1),
* ``label`` -- the edge label of the dataflow graph the element came from
  (``"A1"``, ``"B2"``, ...),
* ``tag``   -- the dynamic-dataflow iteration tag.  The paper's first example
  uses pairs ``[value, label]``; as soon as loops appear the elements become
  triples ``[value, label, tag]``.  We always store the triple and default the
  tag to ``0``, which makes the pair form a special case.

Elements are immutable so that they can live in dictionaries, sets and counted
multisets without surprises, and so that the matching engine can hand them to
reaction actions without defensive copies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Tuple

__all__ = ["Element", "make_elements"]


@dataclass(frozen=True, slots=True, init=False)
class Element:
    """A single multiset element ``[value, label, tag]``.

    Parameters
    ----------
    value:
        The payload.  Usually an ``int`` / ``float`` / ``bool``; any hashable
        value is accepted (unhashable values are rejected eagerly so that
        failures do not surface later inside the multiset internals).
    label:
        The edge label this element corresponds to in the dataflow view.
        Labels are plain strings.  Elements that do not originate from a
        dataflow conversion may use any descriptive string (e.g. ``"x"``).
    tag:
        Dynamic dataflow iteration tag.  Non-negative integer.

    Elements spend their lives as keys of the multiset's counters and of the
    label/tag index buckets, so the triple hash is computed once at
    construction and cached; re-deriving it on every dictionary operation
    dominated the engines' rewrite cost.
    """

    value: Any
    label: str = ""
    tag: int = 0
    _hash: int = field(init=False, repr=False, compare=False, default=0)
    _stable: Any = field(init=False, repr=False, compare=False, default=None)

    def __init__(self, value: Any, label: str = "", tag: int = 0) -> None:
        # Hand-written rather than generated: the engines build an element
        # per produced operand, and the generated frozen ``__init__`` plus a
        # ``__post_init__`` took two to three times as long.  Each slot is
        # stored through its member descriptor (``_set_*`` below), which the
        # frozen class's ``__setattr__`` does not intercept.
        if not isinstance(label, str):
            raise TypeError(f"label must be a string, got {type(label).__name__}")
        if not isinstance(tag, int) or isinstance(tag, bool):
            raise TypeError(f"tag must be an int, got {type(tag).__name__}")
        if tag < 0:
            raise ValueError(f"tag must be non-negative, got {tag}")
        try:
            _set_hash(self, hash((value, label, tag)))
        except TypeError as exc:
            raise TypeError(f"element value must be hashable, got {value!r}") from exc
        _set_value(self, value)
        _set_label(self, label)
        _set_tag(self, tag)
        _set_stable(self, None)

    def __hash__(self) -> int:
        return self._hash

    # -- convenience constructors -------------------------------------------------
    @classmethod
    def pair(cls, value: Any, label: str) -> "Element":
        """Build a pair-form element ``[value, label]`` (tag defaults to 0)."""
        return cls(value=value, label=label, tag=0)

    @classmethod
    def from_tuple(cls, data: Tuple) -> "Element":
        """Build an element from a 1-, 2- or 3-tuple ``(value[, label[, tag]])``."""
        if not isinstance(data, tuple):
            raise TypeError(f"expected a tuple, got {type(data).__name__}")
        if len(data) == 1:
            return cls(value=data[0])
        if len(data) == 2:
            return cls(value=data[0], label=data[1])
        if len(data) == 3:
            return cls(value=data[0], label=data[1], tag=data[2])
        raise ValueError(f"expected a tuple of length 1-3, got length {len(data)}")

    # -- projections ---------------------------------------------------------------
    def as_tuple(self) -> Tuple[Any, str, int]:
        """Return the canonical ``(value, label, tag)`` triple."""
        return (self.value, self.label, self.tag)

    def stable_hash(self) -> int:
        """A process-independent 64-bit hash of the canonical triple.

        Unlike ``hash(self)``, which varies with ``PYTHONHASHSEED`` for string
        labels (and any string-valued payload), this digest depends only on
        the ``repr`` of the canonicalized ``(value, label, tag)`` triple, so
        it is identical across interpreter processes and seeds.  The
        distributed runtime partitions on it — a partitioning decision taken
        on one node must be reproducible on every other node.

        Equal elements must digest equally, so numeric values that compare
        equal across types (``True == 1 == 1.0``) are canonicalized to one
        form before hashing; exotic numeric types (``Decimal``, ``Fraction``)
        and values with unstable ``repr`` (e.g. sets) are not canonicalized —
        they get a consistent placement per representation, never an error.

        The digest is cached on first use (elements are immutable, so it can
        never go stale): the sharded runtime hashes the same element on every
        partition/routing lookup, and recomputing blake2b per call was
        measurable on the exchange paths.  Caching is lazy rather than done
        in ``__init__`` because the single-process engines construct
        millions of elements that are never routed.
        """
        cached = self._stable
        if cached is not None:
            return cached
        value = self.value
        if isinstance(value, bool):
            value = int(value)
        elif isinstance(value, float) and value.is_integer():
            value = int(value)
        digest = hashlib.blake2b(
            repr((value, self.label, self.tag)).encode("utf-8"), digest_size=8
        ).digest()
        result = int.from_bytes(digest, "big")
        _set_stable(self, result)
        return result

    def with_value(self, value: Any) -> "Element":
        """Copy of this element with a different value."""
        return Element(value=value, label=self.label, tag=self.tag)

    def with_label(self, label: str) -> "Element":
        """Copy of this element with a different label."""
        return Element(value=self.value, label=label, tag=self.tag)

    def with_tag(self, tag: int) -> "Element":
        """Copy of this element with a different tag."""
        return Element(value=self.value, label=self.label, tag=tag)

    def inc_tag(self, delta: int = 1) -> "Element":
        """Copy of this element with the tag incremented by ``delta``."""
        return Element(value=self.value, label=self.label, tag=self.tag + delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.value!r}, {self.label!r}, {self.tag}]"


_set_value = Element.value.__set__
_set_label = Element.label.__set__
_set_tag = Element.tag.__set__
_set_hash = Element._hash.__set__
_set_stable = Element._stable.__set__


def make_elements(items: Iterable) -> list:
    """Normalize an iterable of tuples/Elements into a list of :class:`Element`.

    Accepts a mix of :class:`Element` instances and plain tuples in any of the
    forms accepted by :meth:`Element.from_tuple`.  This is the convenience
    entry point used by examples and tests to write initial multisets tersely::

        make_elements([(1, "A1"), (5, "B1"), (3, "C1"), (2, "D1")])
    """
    out = []
    for item in items:
        if isinstance(item, Element):
            out.append(item)
        elif isinstance(item, tuple):
            out.append(Element.from_tuple(item))
        else:
            out.append(Element(value=item))
    return out
