"""Property tests for superstep matches of multiplicity: the *(tuple, k)* rule.

The superstep collectors hand out one match per distinct enabled tuple with
``match.times = k`` — the minimum, over the objects the tuple holds, of
unclaimed copies // slots the object fills — instead of one match per copy.
These properties pin what must not change with that on *multiplicity-heavy*
multisets (1–60 elements over at most 4 values), the regime the other
property suites' mostly-distinct inputs barely touch:

* a batch is exactly ``times`` ordinary firings of each tuple: replaying it
  one firing at a time through the *validating* ``Multiset.replace`` never
  over-consumes and equals the counted batch rewrite;
* no element is claimed beyond its count — for arity 1, 2, and an arity-3
  fold in which one object fills several slots of the same tuple;
* the object and columnar collectors make identical ``(consumed, times)``
  decisions, with numpy and on the pure-Python fallback;
* the *seeded* collector — one random permutation per bucket per superstep,
  then the deterministic scan — repeats itself per seed and hands out a
  disjoint, exact (``k = min a_i // m_i``) and maximal batch, self-pair
  tuples and tag-bound buckets included;
* engines and sharded backends still reach the sequential engine's stable
  multiset with the same number of *firings* (every counter keeps counting
  copies), preserve mass on a chemistry soup, and make identical per-seed
  decisions in-process and across OS processes.

``CHAOS_EXAMPLES`` widens the example budget (the CI ``chaos`` job).
"""

import multiprocessing
import os
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from generators import chemistry_soups, random_programs
from repro.api import RuntimeConfig
from repro.gamma import ParallelEngine, run
from repro.gamma.expr import BinOp, Compare, Const, Var
from repro.gamma.matching import fire_batch
from repro.gamma.pattern import pattern, template
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.scheduler import ReactionScheduler
from repro.gamma.stdlib import (
    gcd_program,
    max_element,
    min_element,
    remove_duplicates,
    sum_reduction,
    values_multiset,
)
from repro.multiset import Element, Multiset
from repro.multiset import columnar as columnar_module
from repro.runtime.sharding import ShardCoordinator

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: Example budget per property; the CI chaos job raises this.
CHAOS_EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "8"))
IN_PROCESS = settings(max_examples=5 * CHAOS_EXAMPLES, deadline=None)

#: 1-60 elements over <= 4 values: ~15 copies per value at the top end.
heavy_values = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=60)
seeds = st.none() | st.integers(min_value=0, max_value=2**16)
budgets = st.none() | st.integers(min_value=1, max_value=9)


def _descent() -> GammaProgram:
    """Arity 1: ``replace x by x - 1 where x > 1``."""
    reaction = Reaction(
        name="Rdescent",
        replace=[pattern("x", "x", "t")],
        branches=[Branch(productions=[template(BinOp("-", Var("x"), Const(1)), "x", Const(0))])],
        guard=Compare(">", Var("x"), Const(1)),
    )
    return GammaProgram([reaction], name="descent")


def _fold3() -> GammaProgram:
    """Self-colliding arity 3: ``replace a, b, c by a + b + c`` on one label."""
    total = BinOp("+", BinOp("+", Var("a"), Var("b")), Var("c"))
    reaction = Reaction(
        name="Rfold3",
        replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2"), pattern("c", "x", "t3")],
        branches=[Branch(productions=[template(total, "x", Const(0))])],
    )
    return GammaProgram([reaction], name="fold3")


#: Arity 1, 2 (guarded and guard-free, i.e. self-colliding) and 3.
PROGRAMS = {
    "descent": _descent,
    "min_element": min_element,
    "remove_duplicates": remove_duplicates,
    "sum_reduction": sum_reduction,
    "fold3": _fold3,
}
programs = st.sampled_from(sorted(PROGRAMS))

#: Confluent stdlib programs: every schedule reaches one stable multiset.
CONFLUENT = {
    "min_element": min_element,
    "max_element": max_element,
    "sum_reduction": sum_reduction,
    "gcd": gcd_program,
    "remove_duplicates": remove_duplicates,
}
#: ... and, except for gcd's subtraction chains, in one number of firings.
FIRINGS_VARY = {"gcd"}


def _collect(program, multiset, seed=None, budget=None, **scheduler_options):
    """One superstep's matches against ``multiset`` (left unmodified)."""
    rng = None if seed is None else random.Random(seed)
    scheduler = ReactionScheduler(program.reactions, multiset, rng=rng, **scheduler_options)
    try:
        return scheduler.collect_superstep_matches(budget=budget)
    finally:
        scheduler.detach()


@IN_PROCESS
@given(name=programs, values=heavy_values, seed=seeds, budget=budgets, compiled=st.booleans())
def test_batch_equals_times_validated_single_firings(name, values, seed, budget, compiled):
    """(a) + (b): a match of multiplicity k *is* k firings, none over-claiming."""
    program = PROGRAMS[name]()
    initial = values_multiset(values)
    matches = _collect(program, initial, seed=seed, budget=budget, compiled=compiled)
    assert all(match.times >= 1 for match in matches)
    if budget is not None:
        assert sum(match.times for match in matches) <= budget

    claimed = Counter()
    for match in matches:
        for element in match.consumed:
            claimed[element] += match.times
    for element, copies in claimed.items():
        assert copies <= initial.count(element)

    one_by_one = initial.copy()
    for match in matches:
        for _ in range(match.times):
            one_by_one.replace(match.consumed, match.produced())  # raises on over-consumption
    batched = initial.copy()
    fired = fire_batch(batched, matches)
    assert fired == sum(match.times for match in matches)
    assert batched == one_by_one


def _tagged_fold() -> GammaProgram:
    """Tag-bound self-pair: ``replace (a, x, t), (b, x, t) by (a + b, x, t)``.

    Slot 1's bucket is the ``(label, tag)`` bucket slot 0 bound, so one
    superstep permutes several tag buckets, each shared by both slots.
    """
    reaction = Reaction(
        name="Rtagfold",
        replace=[pattern("a", "x", "t"), pattern("b", "x", "t")],
        branches=[Branch(productions=[template(BinOp("+", Var("a"), Var("b")), "x", "t")])],
    )
    return GammaProgram([reaction], name="tagged_fold")


SEEDED_PROGRAMS = dict(PROGRAMS, tagged_fold=_tagged_fold)

#: 1-60 elements over <= 4 values x 3 tags.
heavy_tagged = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2)),
    min_size=1,
    max_size=60,
)


@IN_PROCESS
@given(
    name=st.sampled_from(sorted(SEEDED_PROGRAMS)),
    items=heavy_tagged,
    seed=st.integers(min_value=0, max_value=2**16),
    compiled=st.booleans(),
)
def test_seeded_batch_is_repeatable_disjoint_exact_and_maximal(name, items, seed, compiled):
    """The re-specified seeded order keeps every guarantee of the unseeded scan."""
    program = SEEDED_PROGRAMS[name]()
    initial = Multiset(Element(value=value, label="x", tag=tag) for value, tag in items)
    matches = _collect(program, initial, seed=seed, compiled=compiled)
    again = _collect(program, initial, seed=seed, compiled=compiled)
    assert [(m.consumed, m.times) for m in again] == [(m.consumed, m.times) for m in matches]

    unclaimed = Counter(initial.counts())
    for match in matches:
        slots = Counter(match.consumed)  # m_i: slots each held object fills
        afforded = min(unclaimed[element] // m for element, m in slots.items())
        assert match.times == afforded >= 1
        for element, m in slots.items():
            unclaimed[element] -= afforded * m
    # Maximal: what the batch left unclaimed enables nothing.
    assert _collect(program, Multiset(unclaimed.elements())) == []


@IN_PROCESS
@given(name=programs, values=heavy_values, budget=budgets, numpy_absent=st.booleans())
def test_object_and_columnar_collectors_agree(name, values, budget, numpy_absent):
    """(c): identical ``(consumed, times)`` sequences, numpy or not."""
    program = PROGRAMS[name]()
    initial = values_multiset(values)
    saved = columnar_module._np
    if numpy_absent:
        columnar_module._np = None
    try:
        columnar = _collect(program, initial, budget=budget, columnar=True)
    finally:
        columnar_module._np = saved
    objects = _collect(program, initial, budget=budget)
    assert [(m.consumed, m.times) for m in columnar] == [
        (m.consumed, m.times) for m in objects
    ]


def _pass_through() -> GammaProgram:
    """``replace x, y by x``: the production re-emits the element binding it."""
    reaction = Reaction(
        name="Rkeep",
        replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2")],
        branches=[Branch(productions=[template("a", "x", "t1")])],
        guard=Compare("<=", Var("a"), Var("b")),
    )
    return GammaProgram([reaction], name="pass_through")


def _branching() -> GammaProgram:
    """Conditional branches, two productions, a checked (variable) tag."""
    reaction = Reaction(
        name="Rbranch",
        replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2")],
        branches=[
            Branch(
                productions=[template("b", "x", "t1"), template(Const(1), "y", Var("t2"))],
                condition=Compare(">", Var("a"), Const(2)),
            ),
            Branch(productions=[template(BinOp("+", Var("a"), Var("b")), "x", Const(0))]),
        ],
    )
    return GammaProgram([reaction], name="branching")


def _reordered() -> GammaProgram:
    """A non-identity match plan: the constant-tag pattern is probed first."""
    reaction = Reaction(
        name="Rreorder",
        replace=[pattern("a", "x", "t"), pattern("b", "x", Const(1))],
        branches=[Branch(productions=[template("a", "x", "t")])],
        guard=Compare("!=", Var("a"), Var("b")),
    )
    return GammaProgram([reaction], name="reordered")


BATCH_PROGRAMS = dict(
    SEEDED_PROGRAMS, pass_through=_pass_through, branching=_branching, reordered=_reordered
)


def _store_order(multiset):
    """Every key order a seeded schedule can observe: counts, label and tag buckets."""
    return (
        list(multiset.counts().items()),
        [(label, list(bucket.items())) for label, bucket in multiset._by_label.items()],
        [
            (label, [(tag, list(bucket.items())) for tag, bucket in tags.items()])
            for label, tags in multiset._tags.items()
        ],
    )


@st.composite
def batch_cases(draw):
    """A stdlib-style or generated program over a multiplicity-heavy input."""
    if draw(st.booleans()):
        program = BATCH_PROGRAMS[draw(st.sampled_from(sorted(BATCH_PROGRAMS)))]()
        labels = ["x"]
    else:
        program = draw(random_programs())
        labels = sorted({label for r in program.reactions for label in r.consumed_labels()})
    items = draw(
        st.lists(
            st.tuples(
                st.sampled_from(labels),
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return program, Multiset(Element(value, label, tag) for label, value, tag in items)


@IN_PROCESS
@given(
    case=batch_cases(),
    seed=seeds,
    budget=budgets,
    compiled=st.booleans(),
    columnar=st.booleans(),
)
def test_batch_counts_equal_its_matches(case, seed, budget, compiled, columnar):
    """The counts a collector wrote while claiming are its matches', exactly.

    ``removed`` / ``added`` equal the aggregation of the materialised
    matches' consumed and produced elements x ``times`` — key order included
    — and firing the batch leaves the multiset and every bucket order that
    aggregation would have left.
    """
    program, initial = case
    batch = _collect(program, initial, seed=seed, budget=budget, compiled=compiled, columnar=columnar)
    removed, added = {}, {}
    for match in batch:
        for element in match.consumed:
            removed[element] = removed.get(element, 0) + match.times
        for element in match.produced():
            added[element] = added.get(element, 0) + match.times
    assert list(batch.removed.items()) == list(removed.items())
    assert list(batch.added.items()) == list(added.items())
    assert batch.firings == sum(match.times for match in batch)
    assert len(batch) == len(batch.records)

    fired = initial.copy()
    assert fire_batch(fired, batch, validate=not compiled) == batch.firings
    aggregated = initial.copy()
    aggregated.rewrite_batch_unchecked(removed, added)
    assert fired == aggregated
    assert _store_order(fired) == _store_order(aggregated)


@IN_PROCESS
@given(
    name=st.sampled_from(sorted(CONFLUENT)),
    values=heavy_values,
    seed=seeds,
    columnar=st.booleans(),
    max_batch=budgets,
)
def test_parallel_engine_matches_sequential_result_and_firings(
    name, values, seed, columnar, max_batch
):
    """(d): same stable multiset, same firing count, counters agree."""
    program = CONFLUENT[name]()
    initial = values_multiset(values)
    reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
    result = ParallelEngine(seed=seed, columnar=columnar, max_batch=max_batch).run(
        program, initial
    )
    assert result.final == reference.final
    if name not in FIRINGS_VARY:
        assert result.firings == reference.firings
    assert result.trace.num_firings == result.firings
    assert sum(result.parallelism_profile()) == result.firings
    if max_batch is not None:
        assert max(result.parallelism_profile(), default=0) <= max_batch


@settings(
    max_examples=2 * CHAOS_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(soup=chemistry_soups(max_molecules=60), seed=seeds, columnar=st.booleans())
def test_parallel_engine_preserves_soup_mass(soup, seed, columnar):
    """(d): non-confluent soups keep their conserved quantity."""
    result = ParallelEngine(seed=seed, columnar=columnar).run(soup.program, soup.initial)
    assert soup.mass(result.final) == soup.initial_mass
    assert result.trace.num_firings == result.firings


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
@settings(
    max_examples=max(2, CHAOS_EXAMPLES // 4),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(CONFLUENT)),
    values=heavy_values,
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([2, 3]),
)
def test_inprocess_and_multiprocessing_decide_identically(name, values, seed, shards):
    """(e): per-seed rounds, firings and migrations do not depend on the backend."""
    program = CONFLUENT[name]()
    initial = values_multiset(values)
    reference = run(program, initial, config=RuntimeConfig(engine="sequential"))
    local = ShardCoordinator(program, shards, seed=seed).run(initial)
    remote = ShardCoordinator(program, shards, backend="multiprocessing", seed=seed).run(
        initial
    )
    assert local.final == remote.final == reference.final
    assert local.firings == remote.firings
    if name not in FIRINGS_VARY:
        assert local.firings == reference.firings
    assert local.rounds == remote.rounds
    assert local.migrations == remote.migrations
    assert local.per_partition_firings == remote.per_partition_firings
