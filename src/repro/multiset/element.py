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
reaction actions without defensive copies.  An :class:`Element` is a ``tuple``
subclass holding just the triple, so element-keyed dict operations hash in C.
"""

from __future__ import annotations

import hashlib
from _collections import _tuplegetter
from typing import Any, Iterable, Tuple

__all__ = ["Element", "make_elements"]

_tuple_new = tuple.__new__
_tuple_eq = tuple.__eq__


class Element(tuple):
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

    ``hash(element)`` is ``hash((value, label, tag))``, never stored, so a
    pickled element is rehashed under its loader's ``PYTHONHASHSEED``.
    Elements equal elements field by field, never a plain tuple, and
    ordering them raises ``TypeError``.
    """

    __slots__ = ()
    __match_args__ = ("value", "label", "tag")

    value = _tuplegetter(0, "The payload.")
    label = _tuplegetter(1, "The dataflow edge label.")
    tag = _tuplegetter(2, "The dynamic dataflow iteration tag.")

    def __new__(cls, value: Any, label: str = "", tag: int = 0) -> "Element":
        if not isinstance(label, str):
            raise TypeError(f"label must be a string, got {type(label).__name__}")
        if not isinstance(tag, int) or isinstance(tag, bool):
            raise TypeError(f"tag must be an int, got {type(tag).__name__}")
        if tag < 0:
            raise ValueError(f"tag must be non-negative, got {tag}")
        try:
            hash(value)
        except TypeError as exc:
            raise TypeError(f"element value must be hashable, got {value!r}") from exc
        return _tuple_new(cls, (value, label, tag))

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Element):
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of ``__eq__``, not ``tuple.__ne__``

    def __lt__(self, other: object) -> bool:
        # Raising, as ``NotImplemented`` would fall back to tuple ordering.
        raise TypeError("multiset elements are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __reduce__(self) -> Tuple[type, Tuple[Any, str, int]]:
        # The triple only: the loader rebuilds (and rehashes) the element.
        return (type(self), tuple(self))

    # -- convenience constructors -------------------------------------------------
    @classmethod
    def pair(cls, value: Any, label: str) -> "Element":
        """Build a pair-form element ``[value, label]`` (tag defaults to 0)."""
        return cls(value=value, label=label, tag=0)

    @classmethod
    def from_tuple(cls, data: Tuple) -> "Element":
        """Build an element from a plain 1-, 2- or 3-tuple ``(value[, label[, tag]])``."""
        if not isinstance(data, tuple) or isinstance(data, Element):
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
        return tuple(self)

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

        The digest is computed on each call and not cached: partitioning
        asks once per element, and the elements it partitions are fresh.
        """
        value = self.value
        if isinstance(value, bool):
            value = int(value)
        elif isinstance(value, float) and value.is_integer():
            value = int(value)
        digest = hashlib.blake2b(
            repr((value, self.label, self.tag)).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

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
