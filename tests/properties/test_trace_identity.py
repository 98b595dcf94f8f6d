"""Pinned single-firing executions: every firing record and the final multiset.

The sequential and chaotic engines are the paper's reference Gamma
execution — one reaction fires per step on matching elements — and their
hot path (the compiled probe, the production of a hit, the rewrite and the
input copy) is performance-critical.  Its observable behaviour is part of
the reproduction's contract, so this module pins, for

* the classic programs of :mod:`repro.gamma.stdlib` (the sequential
  composition ``count_threshold`` included),
* the five :mod:`repro.workloads.loops` kernels converted by Algorithm 1,
* and a converted :func:`~repro.workloads.random_expression_graph` DAG,

run sequentially and chaotically (seeded), each with compiled matchers on
and off, the SHA-256 prefix of a canonical tuple holding every
:class:`~repro.gamma.tracer.FiringRecord` (step, reaction, consumed and
produced elements with their value types, binding with value types, times)
and the final multiset in its insertion order.  The values were recorded
before compiled probe hits started producing through the shared production
function and before :meth:`Multiset.copy` started copying dicts.  Run this
file as a script to print the table for the current tree.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.core import dataflow_to_gamma
from repro.gamma import ChaoticEngine, GammaProgram, SequentialEngine
from repro.gamma.pattern import pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import (
    CLASSIC_PROGRAMS,
    count_threshold,
    indexed_multiset,
    min_element,
    values_multiset,
)
from repro.multiset import Element, Multiset
from repro.workloads import LOOP_KERNELS, ExpressionSpec, random_expression_graph

CHAOTIC_SEED = 11

#: Input values of the classic programs: shuffled distinct ints, plus equal
#: int/float pairs so the pins see which value object a production keeps.
_VALUES = [17, 4, 4.0, 23, 9, 31, 2, 12, 12.0, 40, 7, 28, 15, 6.0, 33, 6]

_STDLIB_INPUTS: Dict[str, Callable[[], Multiset]] = {
    "min_element": lambda: values_multiset(_VALUES),
    "max_element": lambda: values_multiset(_VALUES),
    "sum_reduction": lambda: values_multiset(_VALUES),
    "product_reduction": lambda: values_multiset([3, 2.0, 5, 7, 1, 4, 6]),
    "gcd": lambda: values_multiset([84, 36, 120, 60, 48.0]),
    "prime_sieve": lambda: values_multiset(range(2, 40)),
    "exchange_sort": lambda: indexed_multiset([9, 3, 7, 1, 8, 2, 6, 4]),
    "remove_duplicates": lambda: values_multiset([3, 1, 3, 2.0, 2, 1, 3, 5]),
}


def _stdlib(name: str) -> Callable[[], Tuple[Any, Multiset]]:
    return lambda: (CLASSIC_PROGRAMS[name](), _STDLIB_INPUTS[name]())


def _converted(graph_of: Callable[[], Any]) -> Callable[[], Tuple[Any, Multiset]]:
    def build() -> Tuple[Any, Multiset]:
        conversion = dataflow_to_gamma(graph_of())
        return conversion.program, conversion.initial

    return build


PROGRAMS: Dict[str, Callable[[], Tuple[Any, Multiset]]] = {
    name: _stdlib(name) for name in sorted(CLASSIC_PROGRAMS)
}
PROGRAMS["count_threshold"] = lambda: (count_threshold(10), values_multiset(_VALUES))
for _name, _kernel in sorted(LOOP_KERNELS.items()):
    PROGRAMS[f"loop_{_name}"] = _converted(lambda _kernel=_kernel: _kernel().graph())
PROGRAMS["dag"] = _converted(
    lambda: random_expression_graph(
        ExpressionSpec(num_inputs=6, num_operations=40, num_outputs=2, seed=3)
    )
)


def _with_history(multiset: Multiset) -> Multiset:
    """An equal multiset whose label and tag keys are in reverse order.

    A live multiset's label and tag key order follows its history (a bucket
    is keyed when it is created), while an engine's input copy must key them
    in a from-scratch rebuild's order.  Placeholder elements create every
    bucket in reverse order first and are removed once the real elements are
    in, so ``_counts`` keeps the original element order.
    """
    live = Multiset()
    placeholders = []
    for label in reversed(multiset.labels()):
        tags = dict.fromkeys(e.tag for e in multiset.distinct_with_label(label))
        placeholders += [Element(("placeholder",), label, tag) for tag in reversed(tags)]
    for element in placeholders:
        live.add(element)
    live.add_counts(multiset.counts().items())
    for element in placeholders:
        live.remove(element)
    assert live == multiset
    return live


def _history(build: Callable[[], Tuple[Any, Multiset]]) -> Callable[[], Tuple[Any, Multiset]]:
    def rebuild() -> Tuple[Any, Multiset]:
        program, initial = build()
        return program, _with_history(initial)

    return rebuild


for _name in ("loop_gcd_loop", "loop_triangular", "exchange_sort"):
    PROGRAMS[f"{_name}_history"] = _history(PROGRAMS[_name])

MODES = ("sequential", "chaotic")


def _engine(mode: str, compiled: bool, **budget: Any):
    if mode == "sequential":
        return SequentialEngine(compiled=compiled, **budget)
    return ChaoticEngine(seed=CHAOTIC_SEED, compiled=compiled, **budget)


def _typed(value: Any) -> Tuple[str, str]:
    return (type(value).__name__, repr(value))


def _element(element: Element) -> Tuple:
    return (_typed(element.value), element.label, _typed(element.tag))


def _canonical(result) -> Tuple:
    firings = tuple(
        (
            record.step,
            record.reaction,
            tuple(_element(e) for e in record.consumed),
            tuple(_element(e) for e in record.produced),
            tuple((name, _typed(value)) for name, value in record.binding.items()),
            record.times,
        )
        for record in result.trace.firings()
    )
    final = tuple((_element(e), n) for e, n in result.final.counts().items())
    return (firings, final, result.steps, result.firings, result.stable)


def _digest(canonical: Any) -> str:
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def _run(case: str, mode: str, compiled: bool):
    program, initial = PROGRAMS[case]()
    return _engine(mode, compiled).run(program, initial)


# (program, mode, compiled) -> digest of (firings, final, steps, firings, stable).
EXPECTED: Dict[Tuple[str, str, bool], str] = {
    ('count_threshold', 'sequential', True): "f936bdd42999f505",
    ('count_threshold', 'sequential', False): "f936bdd42999f505",
    ('count_threshold', 'chaotic', True): "1a23443bad5aa882",
    ('count_threshold', 'chaotic', False): "1a23443bad5aa882",
    ('dag', 'sequential', True): "b45e92e5d8836203",
    ('dag', 'sequential', False): "b45e92e5d8836203",
    ('dag', 'chaotic', True): "ef9ad4d946def79a",
    ('dag', 'chaotic', False): "ef9ad4d946def79a",
    ('exchange_sort', 'sequential', True): "ff1a8bcbfcc7c176",
    ('exchange_sort', 'sequential', False): "ff1a8bcbfcc7c176",
    ('exchange_sort', 'chaotic', True): "04f2a0432be90c8e",
    ('exchange_sort', 'chaotic', False): "04f2a0432be90c8e",
    ('exchange_sort_history', 'sequential', True): "ff1a8bcbfcc7c176",
    ('exchange_sort_history', 'sequential', False): "ff1a8bcbfcc7c176",
    ('exchange_sort_history', 'chaotic', True): "04f2a0432be90c8e",
    ('exchange_sort_history', 'chaotic', False): "04f2a0432be90c8e",
    ('gcd', 'sequential', True): "1b06efcc12d29938",
    ('gcd', 'sequential', False): "1b06efcc12d29938",
    ('gcd', 'chaotic', True): "4c4fe49805a82b3e",
    ('gcd', 'chaotic', False): "4c4fe49805a82b3e",
    ('loop_accumulation', 'sequential', True): "67e9f470949205df",
    ('loop_accumulation', 'sequential', False): "67e9f470949205df",
    ('loop_accumulation', 'chaotic', True): "4b8c2cdcf3fd27db",
    ('loop_accumulation', 'chaotic', False): "4b8c2cdcf3fd27db",
    ('loop_factorial', 'sequential', True): "d0ed58f129fdbd0d",
    ('loop_factorial', 'sequential', False): "d0ed58f129fdbd0d",
    ('loop_factorial', 'chaotic', True): "2ccc1c1900b3c36e",
    ('loop_factorial', 'chaotic', False): "2ccc1c1900b3c36e",
    ('loop_fibonacci', 'sequential', True): "2b206f425a171a65",
    ('loop_fibonacci', 'sequential', False): "2b206f425a171a65",
    ('loop_fibonacci', 'chaotic', True): "adcaf40bc0d39306",
    ('loop_fibonacci', 'chaotic', False): "adcaf40bc0d39306",
    ('loop_gcd_loop', 'sequential', True): "5360e82be33c425c",
    ('loop_gcd_loop', 'sequential', False): "5360e82be33c425c",
    ('loop_gcd_loop', 'chaotic', True): "63a6bb92b9f0d83e",
    ('loop_gcd_loop', 'chaotic', False): "63a6bb92b9f0d83e",
    ('loop_gcd_loop_history', 'sequential', True): "5360e82be33c425c",
    ('loop_gcd_loop_history', 'sequential', False): "5360e82be33c425c",
    ('loop_gcd_loop_history', 'chaotic', True): "63a6bb92b9f0d83e",
    ('loop_gcd_loop_history', 'chaotic', False): "63a6bb92b9f0d83e",
    ('loop_triangular', 'sequential', True): "a30fdbf5d4f21911",
    ('loop_triangular', 'sequential', False): "a30fdbf5d4f21911",
    ('loop_triangular', 'chaotic', True): "0f81c1950982f76c",
    ('loop_triangular', 'chaotic', False): "0f81c1950982f76c",
    ('loop_triangular_history', 'sequential', True): "a30fdbf5d4f21911",
    ('loop_triangular_history', 'sequential', False): "a30fdbf5d4f21911",
    ('loop_triangular_history', 'chaotic', True): "0f81c1950982f76c",
    ('loop_triangular_history', 'chaotic', False): "0f81c1950982f76c",
    ('max_element', 'sequential', True): "9d88f1381665ee42",
    ('max_element', 'sequential', False): "9d88f1381665ee42",
    ('max_element', 'chaotic', True): "35a665172d02a81f",
    ('max_element', 'chaotic', False): "35a665172d02a81f",
    ('min_element', 'sequential', True): "3ff9813d23cdb722",
    ('min_element', 'sequential', False): "3ff9813d23cdb722",
    ('min_element', 'chaotic', True): "4eb5992e9330517c",
    ('min_element', 'chaotic', False): "4eb5992e9330517c",
    ('prime_sieve', 'sequential', True): "fe0d70e60af3b8f2",
    ('prime_sieve', 'sequential', False): "fe0d70e60af3b8f2",
    ('prime_sieve', 'chaotic', True): "1fbffbdc94ea1ae6",
    ('prime_sieve', 'chaotic', False): "1fbffbdc94ea1ae6",
    ('product_reduction', 'sequential', True): "caa3a0978ec846da",
    ('product_reduction', 'sequential', False): "caa3a0978ec846da",
    ('product_reduction', 'chaotic', True): "fe07fed77919b6c1",
    ('product_reduction', 'chaotic', False): "fe07fed77919b6c1",
    ('remove_duplicates', 'sequential', True): "0aad1a0a4b732927",
    ('remove_duplicates', 'sequential', False): "0aad1a0a4b732927",
    ('remove_duplicates', 'chaotic', True): "0aad1a0a4b732927",
    ('remove_duplicates', 'chaotic', False): "0aad1a0a4b732927",
    ('sum_reduction', 'sequential', True): "d445ccc4e8bab461",
    ('sum_reduction', 'sequential', False): "d445ccc4e8bab461",
    ('sum_reduction', 'chaotic', True): "63534ac9ed145a03",
    ('sum_reduction', 'chaotic', False): "63534ac9ed145a03",
}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_single_firing_run_is_pinned(case, mode, compiled):
    result = _run(case, mode, compiled)
    assert result.stable
    assert _digest(_canonical(result)) == EXPECTED[case, mode, compiled]


@pytest.mark.parametrize("mode", MODES)
def test_min_element_hands_back_the_consumed_element(mode):
    # ``replace x, y by x``: the product *is* the consumed x, not a copy.
    result = _engine(mode, compiled=True).run(min_element(), values_multiset(_VALUES))
    firings = result.trace.firings()
    assert len(firings) == len(_VALUES) - 1
    for record in firings:
        assert record.produced[0] is record.consumed[0]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("mode", MODES)
def test_join_keeps_the_binding_patterns_value(mode, compiled):
    # ``a`` is bound by the first pattern (the int 1); re-emitting the
    # second pattern's label and tag must not hand back its 1.0, and
    # re-emitting the first pattern's label with the second pattern's tag
    # must not hand back the first element.  (The join re-enables itself,
    # so one step is run.)
    join = Reaction(
        "Rjoin",
        [pattern("a", "x", "t1"), pattern("a", "y", "t2")],
        [Branch(productions=[template("a", "y", "t2"), template("a", "x", "t2")])],
    )
    multiset = Multiset([Element(1, "x", 0), Element(1.0, "y", 1)])
    engine = _engine(mode, compiled, max_steps=1, raise_on_budget=False)
    result = engine.run(GammaProgram([join]), multiset)
    (record,) = result.trace.firings()
    assert list(record.produced) == [Element(1, "y", 1), Element(1, "x", 1)]
    assert [type(e.value) for e in record.produced] == [int, int]
    assert record.produced[0] is not record.consumed[1]
    assert record.produced[1] is not record.consumed[0]
    assert [type(e.value) for e in result.final.counts()] == [int, int]


if __name__ == "__main__":  # pragma: no cover - table printer
    for _case in sorted(PROGRAMS):
        for _mode in MODES:
            for _compiled in (True, False):
                _got = _digest(_canonical(_run(_case, _mode, _compiled)))
                print(f'    ({_case!r}, {_mode!r}, {_compiled}): "{_got}",')
