"""Property-based differential tests: compiled ≡ interpreted reactions.

Two contracts back the reaction compiler:

* **order-exact** — for reactions whose match plan is the identity
  permutation (fixed labels, uniformly-shaped tags: the shape of every paper
  listing and of Algorithm 1's output), the compiled matcher must produce
  *the same matches in the same order* as the interpreted
  :class:`~repro.gamma.matching.Matcher`, consume a seeded RNG identically,
  and drive every engine to a bit-identical seeded trace;
* **set-exact** — for arbitrary reactions (mixed constant/variable labels
  and tags), a reordered plan may enumerate differently but must find
  exactly the same *set* of matches.
"""

import random

from hypothesis import given, settings, strategies as st

import pytest

from repro.gamma import (
    Branch,
    ChaoticEngine,
    Const,
    ElementPattern,
    ElementTemplate,
    GammaProgram,
    Matcher,
    ParallelEngine,
    Reaction,
    ReactionScheduler,
    SequentialEngine,
    Var,
    compile_reaction,
)
from repro.gamma.expr import BinOp, Compare
from repro.multiset import Element, LabelTagIndex, Multiset
from repro.runtime import GammaSimulator
from repro.workloads import make_workload

LABELS = ("A", "B", "C")

elements = st.builds(
    Element,
    value=st.integers(min_value=-6, max_value=6),
    label=st.sampled_from(LABELS),
    tag=st.integers(min_value=0, max_value=2),
)

multisets = st.lists(elements, min_size=0, max_size=14).map(Multiset)


def _value_field(i: int, draw_const):
    return Var(f"x{i}") if draw_const is None else Const(draw_const)


@st.composite
def identity_plan_reactions(draw):
    """Reactions with fixed labels and per-pattern variable tags (or one
    shared tag variable): the Algorithm-1 shape, guaranteed identity plans."""
    arity = draw(st.integers(min_value=1, max_value=3))
    shared_tag = draw(st.booleans())
    patterns = []
    for i in range(arity):
        value_const = draw(st.one_of(st.none(), st.integers(min_value=-3, max_value=3)))
        patterns.append(
            ElementPattern(
                value=_value_field(i, value_const),
                label=Const(draw(st.sampled_from(LABELS))),
                tag=Var("v") if shared_tag else Var(f"t{i}"),
            )
        )
    bound = sorted(set().union(*[p.variables() for p in patterns]))
    # Guard: compare two bound variables / constants (or none).
    guard = None
    if bound and draw(st.booleans()):
        left = Var(draw(st.sampled_from(bound)))
        right_name = draw(st.one_of(st.none(), st.sampled_from(bound)))
        right = Var(right_name) if right_name else Const(draw(st.integers(-3, 3)))
        guard = Compare(draw(st.sampled_from(["<", "<=", "==", "!=", ">", ">="])), left, right)
    # One or two branches producing arithmetic over bound vars.
    def production():
        if bound and draw(st.booleans()):
            value = BinOp("+", Var(draw(st.sampled_from(bound))), Const(draw(st.integers(0, 2))))
        else:
            value = Const(draw(st.integers(-3, 3)))
        return ElementTemplate(
            value=value,
            label=Const(draw(st.sampled_from(LABELS))),
            tag=Const(draw(st.integers(0, 2))),
        )

    branches = [Branch(productions=[production() for _ in range(draw(st.integers(0, 2)))])]
    if bound and draw(st.booleans()):
        condition = Compare(">", Var(draw(st.sampled_from(bound))), Const(0))
        branches.insert(0, Branch(productions=[production()], condition=condition))
    return Reaction(name="Rprop", replace=patterns, branches=branches, guard=guard)


@st.composite
def mixed_selectivity_reactions(draw):
    """Reactions mixing constant/variable labels and tags: plans may reorder."""
    arity = draw(st.integers(min_value=1, max_value=3))
    patterns = []
    for i in range(arity):
        label_const = draw(st.one_of(st.none(), st.sampled_from(LABELS)))
        tag_const = draw(st.one_of(st.none(), st.integers(0, 2)))
        patterns.append(
            ElementPattern(
                value=Var(f"x{i}"),
                label=Const(label_const) if label_const is not None else Var(f"l{i}"),
                tag=Const(tag_const) if tag_const is not None else Var(f"t{i}"),
            )
        )
    branches = [Branch(productions=[])]
    return Reaction(name="Rmix", replace=patterns, branches=branches)


def raw(matches):
    return [(m.consumed, m.binding) for m in matches]


def canonical(pairs):
    return sorted(
        ((repr(consumed), sorted(binding.items())) for consumed, binding in pairs)
    )


class TestCompiledEqualsInterpreted:
    @given(reaction=identity_plan_reactions(), multiset=multisets)
    @settings(max_examples=120, deadline=None)
    def test_same_matches_same_order_deterministic(self, reaction, multiset):
        compiled = compile_reaction(reaction)
        assert compiled.plan.is_identity
        index = LabelTagIndex(multiset)
        interpreted = Matcher(multiset, index=index)
        assert raw(interpreted.iter_matches(reaction)) == raw(
            compiled.iter_matches(index, multiset)
        )

    @given(
        reaction=identity_plan_reactions(),
        multiset=multisets,
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_matches_and_rng_stream_shuffled(self, reaction, multiset, seed):
        compiled = compile_reaction(reaction)
        index = LabelTagIndex(multiset)
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        interpreted = Matcher(multiset, index=index, rng=rng_a)
        assert raw(interpreted.iter_matches(reaction)) == raw(
            compiled.iter_matches(index, multiset, rng=rng_b)
        )
        assert rng_a.getstate() == rng_b.getstate()

    @given(
        reaction=identity_plan_reactions(),
        multiset=multisets,
        seed=st.integers(min_value=0, max_value=999),
        limit=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_partial_probes_consume_rng_identically(self, reaction, multiset, seed, limit):
        # The seeded order is drawn lazily, candidate by candidate, so a probe
        # abandoned early (find, a limited iteration) must leave both RNGs in
        # the same *state* — not merely agree on the matches it did return.
        compiled = compile_reaction(reaction)
        index = LabelTagIndex(multiset)
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        interpreted = Matcher(multiset, index=index, rng=rng_a)
        found, twin = interpreted.find(reaction), compiled.find(index, multiset, rng=rng_b)
        assert (found is None) == (twin is None)
        if found is not None:
            assert raw([found]) == raw([twin])
        assert rng_a.getstate() == rng_b.getstate()
        assert raw(interpreted.iter_matches(reaction, limit=limit)) == raw(
            compiled.iter_matches(index, multiset, rng=rng_b, limit=limit)
        )
        assert rng_a.getstate() == rng_b.getstate()

    @given(
        reactions=st.lists(identity_plan_reactions(), min_size=1, max_size=3),
        multiset=multisets,
        seed=st.integers(min_value=0, max_value=999),
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    @settings(max_examples=80, deadline=None)
    def test_seeded_superstep_collectors_agree(self, reactions, multiset, seed, budget):
        # The interpreted collector scans the compiled collectors' bucket
        # views: same (tuple, k) decisions, same permutation per bucket.
        supersteps, rngs = [], []
        for compiled in (True, False):
            rng = random.Random(seed)
            scheduler = ReactionScheduler(reactions, multiset.copy(), rng=rng, compiled=compiled)
            try:
                matches = scheduler.collect_superstep_matches(budget=budget)
            finally:
                scheduler.detach()
            supersteps.append([(m.consumed, m.binding, m.times) for m in matches])
            rngs.append(rng.getstate())
        assert supersteps[0] == supersteps[1]
        assert rngs[0] == rngs[1]

    @given(reaction=mixed_selectivity_reactions(), multiset=multisets)
    @settings(max_examples=120, deadline=None)
    def test_same_match_set_for_reordered_plans(self, reaction, multiset):
        compiled = compile_reaction(reaction)
        index = LabelTagIndex(multiset)
        interpreted = Matcher(multiset, index=index)
        assert canonical(raw(compiled.iter_matches(index, multiset))) == canonical(
            raw(interpreted.iter_matches(reaction))
        )

    @given(reaction=identity_plan_reactions(), multiset=multisets)
    @settings(max_examples=60, deadline=None)
    def test_find_agrees_with_first_iterated_match(self, reaction, multiset):
        compiled = compile_reaction(reaction)
        index = LabelTagIndex(multiset)
        found = compiled.find(index, multiset)
        first = next(compiled.iter_matches(index, multiset), None)
        if found is None:
            assert first is None
        else:
            assert (found.consumed, found.binding) == (first.consumed, first.binding)


def trace_key(result):
    return [
        (f.step, f.reaction, f.consumed, f.produced, f.binding)
        for f in result.trace.firings()
    ]


@st.composite
def bounded_programs(draw):
    """Small random programs of identity-plan reactions, run under a step cap."""
    reactions = [
        draw(identity_plan_reactions()).renamed(f"R{i}")
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    multiset = draw(st.lists(elements, min_size=0, max_size=10).map(Multiset))
    return GammaProgram(reactions, name="prop", initial=multiset)


class TestEngineTraceBitIdentity:
    @given(program=bounded_programs(), seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=40, deadline=None)
    def test_seeded_traces_identical_across_compiled_flag(self, program, seed):
        for cls, kwargs in (
            (SequentialEngine, {}),
            (ChaoticEngine, {"seed": seed}),
            (ParallelEngine, {"seed": seed}),
        ):
            fast = cls(
                compiled=True, max_steps=60, raise_on_budget=False, **kwargs
            ).run(program)
            base = cls(
                compiled=False, max_steps=60, raise_on_budget=False, **kwargs
            ).run(program)
            assert trace_key(fast) == trace_key(base)
            assert fast.final == base.final
            assert fast.stable == base.stable


WORKLOADS = ("min_element", "sum_reduction", "prime_sieve", "exchange_sort", "gcd")
SEEDS = (0, 1, 2)


class TestPaperWorkloadBitIdentity:
    @pytest.mark.parametrize("workload_name", WORKLOADS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_compiled_traces_bit_identical_on_paper_workloads(self, workload_name, seed):
        workload = make_workload(workload_name, size=14, seed=seed)
        for cls, kwargs in (
            (SequentialEngine, {}),
            (ChaoticEngine, {"seed": seed}),
            (ParallelEngine, {"seed": seed}),
        ):
            fast = cls(compiled=True, **kwargs).run(workload.program, workload.initial)
            base = cls(compiled=False, **kwargs).run(workload.program, workload.initial)
            assert trace_key(fast) == trace_key(base)
            assert fast.final == base.final

    @pytest.mark.parametrize("workload_name", WORKLOADS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("num_pes", (None, 3))
    def test_seeded_simulator_profiles_identical(self, workload_name, seed, num_pes):
        # E9's counting model: the same seeded superstep schedule either way.
        workload = make_workload(workload_name, size=14, seed=seed)
        fast, base = (
            GammaSimulator(workload.program, num_pes=num_pes, seed=seed, compiled=compiled).run(
                workload.initial
            )
            for compiled in (True, False)
        )
        assert fast.metrics.profile == base.metrics.profile
        assert fast.final == base.final

    @pytest.mark.parametrize("workload_name", WORKLOADS)
    def test_identity_plans_on_paper_workloads(self, workload_name):
        workload = make_workload(workload_name, size=8, seed=0)
        for reaction in workload.program.reactions:
            assert compile_reaction(reaction).plan.is_identity
