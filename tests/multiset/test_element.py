"""Unit tests for tagged multiset elements."""

import copy
import hashlib
import pickle

import pytest

from repro.multiset import Element, make_elements
from repro.multiset.columnar import from_column_batch, to_column_batch
from repro.runtime.net.frames import decode_frame, encode_frame


class TestElementConstruction:
    def test_triple_fields(self):
        e = Element(5, "A1", 2)
        assert e.value == 5
        assert e.label == "A1"
        assert e.tag == 2

    def test_defaults(self):
        e = Element(5)
        assert e.label == ""
        assert e.tag == 0

    def test_pair_constructor(self):
        e = Element.pair(1, "A1")
        assert e.as_tuple() == (1, "A1", 0)

    def test_from_tuple_lengths(self):
        assert Element.from_tuple((1,)).as_tuple() == (1, "", 0)
        assert Element.from_tuple((1, "B")).as_tuple() == (1, "B", 0)
        assert Element.from_tuple((1, "B", 3)).as_tuple() == (1, "B", 3)

    def test_from_tuple_rejects_long_tuples(self):
        with pytest.raises(ValueError):
            Element.from_tuple((1, "B", 3, 4))

    def test_from_tuple_rejects_non_tuples(self):
        with pytest.raises(TypeError):
            Element.from_tuple([1, "B"])

    def test_label_must_be_string(self):
        with pytest.raises(TypeError):
            Element(1, label=42)

    def test_tag_must_be_int(self):
        with pytest.raises(TypeError):
            Element(1, "A", "x")

    def test_tag_must_be_non_negative(self):
        with pytest.raises(ValueError):
            Element(1, "A", -1)

    def test_bool_tag_rejected(self):
        with pytest.raises(TypeError):
            Element(1, "A", True)

    def test_value_must_be_hashable(self):
        with pytest.raises(TypeError):
            Element([1, 2])


class TestConstructorContract:
    """The constructor's contract: checks, their order and messages,
    signature, pickling and hashing."""

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((1, 42), TypeError, "label must be a string, got int"),
            ((1, "A", True), TypeError, "tag must be an int, got bool"),
            ((1, "A", 1.0), TypeError, "tag must be an int, got float"),
            ((1, "A", -1), ValueError, "tag must be non-negative, got -1"),
            (([1, 2],), TypeError, "element value must be hashable, got [1, 2]"),
            # Several checks fail: label, then tag type, then sign, then value.
            (([1], None, -1.5), TypeError, "label must be a string, got NoneType"),
            (([1], "A", -1.5), TypeError, "tag must be an int, got float"),
            (([1], "A", -1), ValueError, "tag must be non-negative, got -1"),
            (({}, "A", 2), TypeError, "element value must be hashable, got {}"),
        ],
    )
    def test_rejections(self, args, error, message):
        with pytest.raises(error) as info:
            Element(*args)
        assert type(info.value) is error and str(info.value) == message

    def test_unhashable_value_chains_the_hash_error(self):
        with pytest.raises(TypeError) as info:
            Element([1, 2], "A")
        assert isinstance(info.value.__cause__, TypeError)

    def test_positional_keyword_and_default_construction(self):
        e = Element(5, "A1", 2)
        assert e == Element(value=5, label="A1", tag=2) == Element(5, tag=2, label="A1")
        assert Element(5).as_tuple() == (5, "", 0)
        assert Element(5, "A1").as_tuple() == (5, "A1", 0)
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'value'"):
            Element()
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            Element(5, lbl="A1")
        with pytest.raises(TypeError):
            Element(5, "A1", 2, 3)
        assert Element.__match_args__ == ("value", "label", "tag")
        match e:
            case Element(value, label, tag):
                assert (value, label, tag) == (5, "A1", 2)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        e = Element((1, "x"), "B", 3)
        back = pickle.loads(pickle.dumps(e, protocol))
        assert type(back) is Element and back == e and back.as_tuple() == e.as_tuple()
        assert hash(back) == hash(e) and back.stable_hash() == e.stable_hash()

    def test_wal_and_wire_payloads_round_trip(self):
        pairs = [(Element(1, "a", 0), 2), (Element(2.5, "b", 4), 1), (Element(True, "c"), 3)]
        # The disk WAL pickles column batches; the wire pickles anything
        # its tagged encoding does not cover, Elements included.
        wal = from_column_batch(pickle.loads(pickle.dumps(to_column_batch(pairs))))
        assert wal == pairs
        wire, _ = decode_frame(encode_frame(pairs), allow_pickle=True)
        assert wire == pairs
        assert [hash(e) for e, _ in wire] == [hash(e) for e, _ in pairs]

    def test_deepcopy_and_replace(self):
        e = Element(3, "B", 1)
        clone = copy.deepcopy(e)
        assert clone == e and hash(clone) == hash(e)
        assert copy.copy(e) == e
        moved = e.with_tag(4)
        assert moved.as_tuple() == (3, "B", 4) and hash(moved) == hash((3, "B", 4))
        with pytest.raises(ValueError):
            e.with_tag(-1)

    def test_hash_and_equality_of_equal_numbers(self):
        elements = [Element(value, "x", 2) for value in (True, 1, 1.0)]
        assert elements[0] == elements[1] == elements[2]
        assert {hash(e) for e in elements} == {hash((1, "x", 2))}
        assert len(set(elements)) == 1
        assert [type(e.value) for e in elements] == [bool, int, float]
        assert Element(1, "x") != Element(1, "y") and Element(1, "x") != Element(1, "x", 1)

    def test_stable_hash_is_a_deterministic_digest(self):
        e = Element(7, "L", 1)
        digest = hashlib.blake2b(repr((7, "L", 1)).encode("utf-8"), digest_size=8).digest()
        assert e.stable_hash() == e.stable_hash() == int.from_bytes(digest, "big")
        assert Element(7.0, "L", 1).stable_hash() == e.stable_hash()
        assert Element(True, "L", 1).stable_hash() == Element(1, "L", 1).stable_hash()


class TestElementOperations:
    def test_equality_and_hash(self):
        assert Element(1, "A", 0) == Element(1, "A", 0)
        assert hash(Element(1, "A", 0)) == hash(Element(1, "A", 0))
        assert Element(1, "A", 0) != Element(1, "A", 1)
        assert Element(1, "A", 0) != Element(2, "A", 0)

    def test_with_value(self):
        e = Element(1, "A", 2).with_value(9)
        assert e.as_tuple() == (9, "A", 2)

    def test_with_label(self):
        e = Element(1, "A", 2).with_label("B")
        assert e.as_tuple() == (1, "B", 2)

    def test_with_tag(self):
        e = Element(1, "A", 2).with_tag(7)
        assert e.as_tuple() == (1, "A", 7)

    def test_inc_tag(self):
        assert Element(1, "A", 2).inc_tag().tag == 3
        assert Element(1, "A", 2).inc_tag(3).tag == 5

    def test_immutable(self):
        e = Element(1, "A", 0)
        with pytest.raises(Exception):
            e.value = 2


class TestNotAPlainTuple:
    """An Element is a tuple underneath, and no plain tuple stands in for one."""

    def test_fields_are_read_only_and_no_others_exist(self):
        e = Element(1, "A", 0)
        for field in ("value", "label", "tag", "other"):
            with pytest.raises(AttributeError):
                setattr(e, field, 2)
        assert e.as_tuple() == (1, "A", 0)

    def test_equality_against_tuples_in_both_directions(self):
        e = Element(1, "a", 0)
        assert not e == (1, "a", 0) and not (1, "a", 0) == e
        assert e != (1, "a", 0) and (1, "a", 0) != e
        assert e == Element(1, "a") and not e != Element(1, "a")
        assert e != [1, "a", 0] and e != "x"

    def test_set_and_dict_membership(self):
        e = Element(1, "a", 0)
        assert hash(e) == hash((1, "a", 0))
        assert (1, "a", 0) not in {e} and e not in {(1, "a", 0)}
        assert Element(1, "a", 0) in {e} and {e: 4}[Element(1.0, "a")] == 4
        assert len({e, (1, "a", 0)}) == 2

    @pytest.mark.parametrize("other", [Element(2, "a"), (2, "a", 0), (0,)])
    def test_no_ordering(self, other):
        e = Element(1, "a", 0)
        for compare in (
            lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b
        ):
            with pytest.raises(TypeError):
                compare(e, other)
            with pytest.raises(TypeError):
                compare(other, e)

    def test_coercions_return_the_same_element(self):
        from repro.multiset import Multiset
        from repro.runtime.net.gateway import _coerce_pairs
        from repro.runtime.streaming import _coerce

        e = Element(1, "a", 0)
        assert Multiset._coerce(e) is e and _coerce(e) is e
        assert make_elements([e])[0] is e
        assert _coerce_pairs([e]) == [(e, 1)] and _coerce_pairs([e])[0][0] is e
        assert _coerce_pairs([(e, 3)])[0][0] is e
        with pytest.raises(TypeError, match="expected a tuple, got Element"):
            Element.from_tuple(e)


class TestMakeElements:
    def test_mixed_input(self):
        elements = make_elements([Element(1, "A"), (2, "B"), 3])
        assert [e.as_tuple() for e in elements] == [(1, "A", 0), (2, "B", 0), (3, "", 0)]

    def test_empty(self):
        assert make_elements([]) == []
