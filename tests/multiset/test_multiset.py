"""Unit tests for the counted multiset."""

from collections import Counter

import pytest

from repro.multiset import Element, Multiset


def ms(*tuples):
    return Multiset(list(tuples))


class TestBasics:
    def test_empty(self):
        m = Multiset()
        assert len(m) == 0
        assert not m

    def test_construction_from_tuples(self):
        m = ms((1, "A"), (2, "B"))
        assert len(m) == 2
        assert (1, "A") in m

    def test_multiplicity(self):
        m = Multiset()
        m.add(Element(1, "A"), count=3)
        assert len(m) == 3
        assert m.count((1, "A")) == 3
        assert list(m).count(Element(1, "A")) == 3

    def test_add_rejects_non_positive_count(self):
        m = Multiset()
        with pytest.raises(ValueError):
            m.add(Element(1), count=0)

    def test_contains_coerces_tuples(self):
        m = ms((1, "A", 2))
        assert (1, "A", 2) in m
        assert (1, "A", 3) not in m

    def test_equality_is_count_sensitive(self):
        a = Multiset()
        a.add(Element(1, "A"), 2)
        b = Multiset()
        b.add(Element(1, "A"), 1)
        assert a != b
        b.add(Element(1, "A"), 1)
        assert a == b

    def test_hashable(self):
        assert hash(ms((1, "A"))) == hash(ms((1, "A")))


class TestRemoveReplace:
    def test_remove(self):
        m = ms((1, "A"), (1, "A"), (2, "B"))
        m.remove(Element(1, "A"))
        assert m.count((1, "A")) == 1

    def test_remove_missing_raises(self):
        m = ms((1, "A"))
        with pytest.raises(KeyError):
            m.remove(Element(9, "Z"))

    def test_remove_too_many_raises(self):
        m = ms((1, "A"))
        with pytest.raises(KeyError):
            m.remove(Element(1, "A"), count=2)

    def test_replace_is_atomic_on_failure(self):
        m = ms((1, "A"), (2, "B"))
        with pytest.raises(KeyError):
            m.replace([Element(1, "A"), Element(9, "Z")], [Element(3, "C")])
        # Nothing was removed.
        assert m == ms((1, "A"), (2, "B"))

    def test_replace_gamma_step(self):
        m = ms((1, "A1"), (5, "B1"))
        m.replace([Element(1, "A1"), Element(5, "B1")], [Element(6, "B2")])
        assert m == ms((6, "B2"))

    def test_replace_same_element_twice_requires_multiplicity(self):
        m = Multiset()
        m.add(Element(4, "x"), 2)
        m.replace([Element(4, "x"), Element(4, "x")], [Element(8, "x")])
        assert m == ms((8, "x"))

    def test_clear(self):
        m = ms((1, "A"))
        m.clear()
        assert len(m) == 0
        assert m.labels() == []


class TestQueries:
    def test_with_label(self):
        m = ms((1, "A"), (2, "A"), (3, "B"))
        assert sorted(e.value for e in m.with_label("A")) == [1, 2]
        assert m.values_with_label("B") == [3]
        assert m.with_label("missing") == []

    def test_with_label_multiplicity(self):
        m = Multiset()
        m.add(Element(1, "A"), 2)
        assert len(m.with_label("A")) == 2
        assert len(m.distinct_with_label("A")) == 1

    def test_labels(self):
        m = ms((1, "A"), (2, "B"))
        assert sorted(m.labels()) == ["A", "B"]

    def test_select(self):
        m = ms((1, "A"), (5, "A"), (10, "B"))
        assert sorted(e.value for e in m.select(lambda e: e.value > 3)) == [5, 10]

    def test_restrict_labels(self):
        m = ms((1, "A"), (2, "B"), (3, "C"))
        restricted = m.restrict_labels(["A", "C"])
        assert restricted == ms((1, "A"), (3, "C"))

    def test_drain_labels_drains_a_repeated_label_once(self):
        m = ms((1, "A"), (2, "B"), (3, "A", 1), (4, "C"))
        m.add(Element(1, "A"))
        events = []
        m.subscribe(lambda element, delta: events.append((element.value, delta)))
        drained = m.drain_labels(["A", "B", "A", "Z"])
        # Each distinct label once, in first-occurrence order; full counts.
        assert drained == [(Element(1, "A"), 2), (Element(3, "A", 1), 1), (Element(2, "B"), 1)]
        assert events == [(1, -2), (3, -1), (2, -1)]
        assert m == ms((4, "C"))

    def test_to_tuples_sorted_round_trip(self):
        m = ms((3, "C", 1), (1, "A"), (2, "B"))
        assert Multiset.from_tuples(m.to_tuples()) == m


class TestAlgebra:
    def test_add(self):
        assert ms((1, "A")) + ms((1, "A"), (2, "B")) == Multiset(
            [(1, "A"), (1, "A"), (2, "B")]
        )

    def test_sub_floors_at_zero(self):
        a = ms((1, "A"), (2, "B"))
        b = ms((1, "A"), (1, "A"), (9, "Z"))
        assert a - b == ms((2, "B"))

    def test_copy_is_independent(self):
        a = ms((1, "A"))
        b = a.copy()
        b.add(Element(2, "B"))
        assert len(a) == 1
        assert len(b) == 2

    def test_issubset(self):
        assert ms((1, "A")).issubset(ms((1, "A"), (2, "B")))
        assert not ms((1, "A"), (1, "A")).issubset(ms((1, "A")))

    def test_isdisjoint(self):
        assert ms((1, "A")).isdisjoint(ms((2, "B")))
        assert not ms((1, "A")).isdisjoint(ms((1, "A")))


class TestBatchRewrite:
    def test_batch_equals_sequence_of_unchecked_rewrites(self):
        batch = ms((1, "A"), (2, "A"), (3, "B"), (3, "B"), (4, "C"))
        one_by_one = batch.copy()
        removed = [Element(1, "A"), Element(3, "B")]
        added = [Element(9, "A"), Element(3, "B")]
        batch.rewrite_batch_unchecked(removed, added)
        for r, a in zip(removed, added):
            one_by_one.rewrite_unchecked([r], [a])
        assert batch == one_by_one
        # Same key/bucket ordering, not just the same counts (holds whenever
        # no match consumes an element another match of the batch produces):
        # seeded schedulers observe insertion order.
        assert batch.distinct() == one_by_one.distinct()
        assert batch.with_label("A") == one_by_one.with_label("A")

    def test_consume_of_produced_keeps_counts_but_may_reorder(self):
        # Documented divergence corner: match1 produces a 5 while match2
        # consumes the pre-existing 5.  Counts must agree with sequential
        # firing; key order is allowed to differ (and does).
        batch = ms((5, "A"), (3, "A"), (4, "A"))
        one_by_one = batch.copy()
        removed = [Element(4, "A"), Element(5, "A")]
        added = [Element(5, "A"), Element(9, "A")]
        batch.rewrite_batch_unchecked(removed, added)
        for r, a in zip(removed, added):
            one_by_one.rewrite_unchecked([r], [a])
        assert batch == one_by_one
        assert sorted(e.value for e in batch) == [3, 5, 9]

    def test_consume_and_reproduce_moves_element_to_insertion_end(self):
        m = ms((1, "A"), (2, "A"))
        m.rewrite_batch_unchecked([Element(1, "A")], [Element(1, "A")])
        # Fully consumed then re-added: lands at the end, as sequential
        # remove()/add() would place it.
        assert [e.value for e in m.distinct()] == [2, 1]

    def test_batched_notifications_aggregate_per_distinct_element(self):
        m = ms((1, "A"), (1, "A"), (2, "B"), (3, "B"))
        events = []
        m.subscribe(lambda element, delta: events.append((element.value, delta)))
        m.rewrite_batch_unchecked(
            [Element(1, "A"), Element(1, "A"), Element(2, "B")],
            [Element(7, "C"), Element(7, "C")],
        )
        assert events == [(1, -2), (2, -1), (7, 2)]
        assert sorted(e.value for e in m) == [3, 7, 7]

    def test_counted_mappings_equal_per_copy_iterables(self):
        # The (tuple, k) form: {element: copies}, applied without expansion —
        # same counts, key order and notifications as one entry per copy.
        removed = [Element(1, "A"), Element(2, "B"), Element(1, "A")]
        added = [Element(7, "C"), Element(3, "B"), Element(7, "C"), Element(7, "C")]
        outcomes = []
        for form in (lambda items: items, lambda items: dict(Counter(items))):
            m = ms((1, "A"), (1, "A"), (1, "A"), (2, "B"), (3, "B"))
            events = []
            m.subscribe(lambda element, delta: events.append((element.value, delta)))
            m.rewrite_batch_unchecked(form(removed), form(added))
            outcomes.append((m.counts(), m.distinct(), events))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == [(1, -2), (2, -1), (7, 3), (3, 1)]

    def test_overconsumption_raises(self):
        m = ms((1, "A"))
        with pytest.raises(KeyError):
            m.rewrite_batch_unchecked([Element(1, "A"), Element(1, "A")], [])
        with pytest.raises(KeyError):
            m.rewrite_batch_unchecked({Element(1, "A"): 2}, {})
        with pytest.raises(KeyError):
            ms((2, "B")).rewrite_batch_unchecked([Element(9, "Z")], [])

    def test_empty_batch_is_a_no_op(self):
        m = ms((1, "A"))
        events = []
        m.subscribe(lambda element, delta: events.append(delta))
        m.rewrite_batch_unchecked([], [])
        assert events == [] and len(m) == 1
