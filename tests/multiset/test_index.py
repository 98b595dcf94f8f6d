"""Unit tests for the label/tag index used by the matching engine."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.multiset import Element, LabelTagIndex, Multiset
from repro.multiset import index as index_module
from repro.multiset.index import compaction_bound


class TestIndexMaintenance:
    def test_rebuild_from_multiset(self):
        m = Multiset([(1, "A", 0), (2, "A", 1), (3, "B", 0)])
        index = LabelTagIndex(m)
        assert len(index) == 3
        assert sorted(index.labels()) == ["A", "B"]

    def test_add_remove(self):
        index = LabelTagIndex()
        e = Element(1, "A", 0)
        index.add(e, 2)
        assert index.count(e) == 2
        index.remove(e)
        assert index.count(e) == 1
        index.remove(e)
        assert index.count(e) == 0
        assert index.labels() == []

    def test_remove_missing_raises(self):
        index = LabelTagIndex()
        with pytest.raises(KeyError):
            index.remove(Element(1, "A", 0))

    def test_remove_too_many_raises(self):
        index = LabelTagIndex()
        index.add(Element(1, "A", 0))
        with pytest.raises(KeyError):
            index.remove(Element(1, "A", 0), count=2)

    def test_non_positive_counts_rejected(self):
        index = LabelTagIndex()
        with pytest.raises(ValueError):
            index.add(Element(1, "A", 0), count=0)


class TestIndexQueries:
    def setup_method(self):
        self.index = LabelTagIndex(
            Multiset([(1, "A", 0), (2, "A", 1), (3, "B", 0), (4, "B", 1), (5, "C", 2)])
        )

    def test_candidates_by_label(self):
        assert sorted(e.value for e in self.index.candidates("A")) == [1, 2]

    def test_candidates_by_label_and_tag(self):
        assert [e.value for e in self.index.candidates("A", 1)] == [2]
        assert self.index.candidates("A", 7) == []

    def test_candidates_unknown_label(self):
        assert self.index.candidates("Z") == []

    def test_tags_for(self):
        assert sorted(self.index.tags_for("B")) == [0, 1]
        assert self.index.tags_for("Z") == []

    def test_common_tags(self):
        assert self.index.common_tags(["A", "B"]) == {0, 1}
        assert self.index.common_tags(["A", "C"]) == set()
        assert self.index.common_tags([]) == set()


def _assert_compacted_in_rebuild_order(index, multiset, labels, rebuild=True):
    """The two compaction invariants: every label's deleted-key count is
    within the bound, and its candidates are in from-scratch rebuild order."""
    rebuilt = LabelTagIndex(multiset) if rebuild else None
    for label in labels:
        candidates = index.candidates(label)
        assert index._deleted.get(label, 0) <= compaction_bound(len(candidates))
        if rebuilt is None:
            # A rebuild lists a label's candidates in multiset insertion order.
            assert candidates == [e for e in multiset.distinct() if e.label == label]
            continue
        assert candidates == rebuilt.candidates(label)
        for tag in rebuilt.tags_for(label):
            assert index.candidates(label, tag) == rebuilt.candidates(label, tag)


class TestBucketCompaction:
    def test_fold_churn_keeps_deleted_keys_bounded_and_order_intact(self):
        # A sequential fold's rewrite: the two head keys go, one comes back
        # at the tail.  Two tags, so the per-tag buckets churn as well.
        multiset = Multiset((value, "x", value % 2) for value in range(4000))
        index = LabelTagIndex().attach(multiset)
        step = 0
        while len(multiset) > 1:
            head = index.candidates("x")[:2]
            multiset.replace(head, [head[0]])
            step += 1
            _assert_compacted_in_rebuild_order(
                index, multiset, ["x"], rebuild=step % 97 == 0
            )
        _assert_compacted_in_rebuild_order(index, multiset, ["x"])
        index.detach()


elements = st.builds(
    Element,
    value=st.integers(min_value=0, max_value=30),
    label=st.sampled_from(["A", "B"]),
    tag=st.integers(min_value=0, max_value=2),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), elements),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10 ** 6)),
        st.tuples(
            st.just("batch"),
            st.integers(min_value=0, max_value=4),
            st.lists(elements, max_size=3),
        ),
        st.tuples(st.just("drain"), st.sampled_from(["A", "B"])),
    ),
    max_size=80,
)


class TestBucketCompactionProperties:
    @given(initial=st.lists(elements, max_size=30), ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_random_churn_keeps_both_invariants(self, initial, ops):
        # A small slack makes these short sequences compact often.
        with mock.patch.object(index_module, "COMPACT_SLACK", 1):
            multiset = Multiset(initial)
            index = LabelTagIndex().attach(multiset)
            for op in ops:
                if op[0] == "add":
                    multiset.add(op[1])
                elif op[0] == "remove":
                    present = multiset.distinct()
                    if present:
                        multiset.remove(present[op[1] % len(present)])
                elif op[0] == "batch":
                    _, k, added = op
                    removed = Counter(list(multiset)[:k])
                    multiset.rewrite_batch_unchecked(removed, added)
                else:
                    multiset.drain_labels([op[1]])
                _assert_compacted_in_rebuild_order(index, multiset, ["A", "B"])
            index.detach()
