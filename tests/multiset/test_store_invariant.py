"""The multiset's one-store invariant under every mutator.

A :class:`Multiset` keeps each element's count in three dicts — by element,
by label, and by label and tag — and the index views those buckets
directly, so they must agree after every mutation: same counts, every
bucket in the global insertion order a fresh :meth:`Multiset.copy` has, no
empty buckets, and deleted-key holes within :func:`compaction_bound`.
"""

from collections import Counter
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.multiset import ColumnarStore, Element, Multiset
from repro.multiset import multiset as multiset_module
from repro.multiset.multiset import compaction_bound


def assert_one_store(multiset):
    """Check every part of the one-store invariant on ``multiset``."""
    counts = multiset._counts
    assert all(count > 0 for count in counts.values())
    expected_labels = {}
    expected_tags = {}
    for element, count in counts.items():
        expected_labels.setdefault(element.label, {})[element] = count
        expected_tags.setdefault(element.label, {}).setdefault(element.tag, {})[element] = count
    assert multiset._by_label == expected_labels
    assert multiset._tags == expected_tags
    assert set(multiset._holes) <= set(multiset._by_label)

    # Bucket contents *and* order equal a from-scratch rebuild's (the
    # ``expected_*`` dicts, filled in ``_counts`` order); only label and tag
    # key order may follow the live history instead.
    for label, bucket in multiset._by_label.items():
        assert list(bucket) == list(expected_labels[label])
        for tag, tagged in multiset._tags[label].items():
            assert list(tagged) == list(expected_tags[label][tag])
        assert multiset._holes.get(label, 0) <= compaction_bound(len(bucket))

    # A copy is that rebuild, key order included, with no holes.
    clone = multiset.copy()
    assert list(clone._counts.items()) == list(counts.items())
    assert list(clone._by_label) == list(expected_labels)
    for label, bucket in clone._by_label.items():
        assert list(bucket.items()) == list(expected_labels[label].items())
        assert list(clone._tags[label]) == list(expected_tags[label])
        for tag, tagged in clone._tags[label].items():
            assert list(tagged.items()) == list(expected_tags[label][tag].items())
    assert clone._holes == {} and len(clone) == len(multiset)

    label_counts = multiset.label_counts()
    assert list(label_counts) == list(multiset._by_label)
    assert len(multiset) == sum(counts.values()) == sum(label_counts.values())


elements = st.builds(
    Element,
    value=st.integers(min_value=0, max_value=12),
    label=st.sampled_from(["A", "B", "C"]),
    tag=st.integers(min_value=0, max_value=2),
)
picks = st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=3)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), elements, st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10 ** 6)),
        st.tuples(st.just("replace"), picks, st.lists(elements, max_size=3)),
        st.tuples(st.just("rewrite"), picks, st.lists(elements, max_size=3)),
        st.tuples(st.just("batch"), picks, st.lists(elements, max_size=3)),
        st.tuples(st.just("drain"), st.lists(st.sampled_from(["A", "B", "C"]), max_size=3)),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _pick(multiset, picks):
    """Distinct-copy selection: each pick removes one present copy."""
    pool = list(multiset)
    chosen = []
    for pick in picks:
        if not pool:
            break
        chosen.append(pool.pop(pick % len(pool)))
    return chosen


def _apply(multiset, op):
    kind = op[0]
    if kind == "add":
        multiset.add(op[1], op[2])
    elif kind == "remove":
        present = multiset.distinct()
        if present:
            multiset.remove(present[op[1] % len(present)])
    elif kind == "replace":
        multiset.replace(_pick(multiset, op[1]), op[2])
    elif kind == "rewrite":
        multiset.rewrite_unchecked(_pick(multiset, op[1]), op[2])
    elif kind == "batch":
        multiset.rewrite_batch_unchecked(Counter(_pick(multiset, op[1])), op[2])
    elif kind == "drain":
        multiset.drain_labels(op[1])
    else:
        multiset.clear()


class TestOneStoreInvariant:
    @given(initial=st.lists(elements, max_size=25), ops=operations)
    @settings(max_examples=150, deadline=None)
    def test_every_mutator_keeps_the_stores_equal(self, initial, ops):
        # A small slack makes these short sequences compact often.
        with mock.patch.object(multiset_module, "COMPACT_SLACK", 1):
            multiset = Multiset(initial)
            assert_one_store(multiset)
            for op in ops:
                _apply(multiset, op)
                assert_one_store(multiset)

    @given(initial=st.lists(elements, max_size=25), ops=operations)
    @settings(max_examples=60, deadline=None)
    # Label ``A`` outlives its oldest element: its streak begins before
    # ``B``'s, but its oldest live element comes after ``B``'s.
    @example(
        initial=[Element(1, "A", 0), Element(2, "B", 0), Element(3, "A", 0)],
        ops=[("remove", 0)],
    )
    def test_columnar_sync_into_writes_every_store(self, initial, ops):
        # A columnar mirror follows the multiset through every mutator, then
        # is written back over a multiset holding unrelated state — the
        # drain kernel's hand-back to the object path.
        source = Multiset(initial)
        store = ColumnarStore()
        store.attach(source)
        for op in ops:
            _apply(source, op)
        store.detach()
        target = Multiset([Element(99, "Z", 5), Element(1, "A", 0)])
        store.sync_into(target)
        assert_one_store(target)
        assert target == source
        assert list(target._counts) == list(source._counts)
        assert target.labels() == source.labels()
