"""Property-based tests for the multiset substrate and the Gamma engines."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.gamma import run
from repro.gamma.stdlib import (
    exchange_sort,
    indexed_multiset,
    max_element,
    min_element,
    prime_sieve,
    sum_reduction,
    values_multiset,
)
from repro.multiset import Element, Multiset
from repro.api import RuntimeConfig

elements = st.builds(
    Element,
    value=st.integers(min_value=-50, max_value=50),
    label=st.sampled_from(["A", "B", "C"]),
    tag=st.integers(min_value=0, max_value=3),
)
element_lists = st.lists(elements, max_size=30)


class TestMultisetProperties:
    @given(items=element_lists)
    @settings(max_examples=50, deadline=None)
    def test_iteration_matches_counts(self, items):
        m = Multiset(items)
        assert len(m) == len(items)
        assert Counter(m) == Counter(items)

    @given(a=element_lists, b=element_lists)
    @settings(max_examples=50, deadline=None)
    def test_sum_and_difference_are_counter_like(self, a, b):
        ma, mb = Multiset(a), Multiset(b)
        assert Counter(ma + mb) == Counter(a) + Counter(b)
        assert Counter(ma - mb) == Counter(a) - Counter(b)

    @given(items=element_lists)
    @settings(max_examples=50, deadline=None)
    def test_restrict_labels_partition(self, items):
        m = Multiset(items)
        parts = [m.restrict_labels([label]) for label in ("A", "B", "C")]
        combined = parts[0] + parts[1] + parts[2]
        assert combined == m

    @given(items=element_lists)
    @settings(max_examples=50, deadline=None)
    def test_to_tuples_round_trip(self, items):
        m = Multiset(items)
        assert Multiset.from_tuples(m.to_tuples()) == m


class TestGammaEngineProperties:
    @given(
        values=st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=15),
        seed=st.integers(min_value=0, max_value=1000),
        engine=st.sampled_from(["sequential", "chaotic", "parallel"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_min_max_sum_invariants(self, values, seed, engine):
        initial = values_multiset(values)
        # Eq. 2's strict guard (x < y) cannot merge equal elements, so every
        # copy of the minimum survives in the stable multiset.
        expected_min = [min(values)] * values.count(min(values))
        assert sorted(
            run(min_element(), initial, config=RuntimeConfig(engine=engine, seed=seed)).final.values_with_label("x")
        ) == expected_min
        assert run(max_element(), initial, config=RuntimeConfig(engine=engine, seed=seed)).final.values_with_label("x") == [max(values)]
        assert run(sum_reduction(), initial, config=RuntimeConfig(engine=engine, seed=seed)).final.values_with_label("x") == [sum(values)]

    @given(
        values=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_exchange_sort_sorts(self, values, seed):
        result = run(exchange_sort(), indexed_multiset(values), config=RuntimeConfig(engine="chaotic", seed=seed))
        by_tag = sorted(result.final, key=lambda e: e.tag)
        assert [e.value for e in by_tag] == sorted(values)
        # The multiset of values is preserved (a permutation).
        assert Counter(e.value for e in result.final) == Counter(values)

    @given(upper=st.integers(min_value=2, max_value=40), seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_sieve_yields_primes(self, upper, seed):
        result = run(prime_sieve(), values_multiset(range(2, upper + 1)), config=RuntimeConfig(engine="chaotic", seed=seed))
        survivors = sorted(result.final.values_with_label("x"))
        primes = [n for n in range(2, upper + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]
        assert survivors == primes

    @given(
        values=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=12),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_firing_count_of_binary_reductions(self, values, seed):
        result = run(sum_reduction(), values_multiset(values), config=RuntimeConfig(engine="chaotic", seed=seed))
        assert result.firings == len(values) - 1
