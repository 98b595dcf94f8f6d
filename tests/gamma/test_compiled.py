"""Unit tests for the reaction compilation subsystem."""

import random

import pytest

from repro.gamma import (
    Branch,
    CompilationError,
    CompiledMatch,
    Const,
    ElementPattern,
    ElementTemplate,
    EvaluationError,
    Expr,
    Matcher,
    Reaction,
    Var,
    compile_expr,
    compile_reaction,
    pattern,
    template,
    var,
)
from repro.gamma.scheduler import ReactionScheduler
from repro.gamma.stdlib import (
    exchange_sort,
    gcd_program,
    min_element,
    sum_reduction,
    values_multiset,
    indexed_multiset,
)
from repro.multiset import Element, LabelTagIndex, Multiset


def fold_reaction():
    return sum_reduction().reactions[0]


def raw_matches(matcher_or_compiled, reaction, index=None, multiset=None, rng=None):
    """(consumed, binding) pairs — comparable across the two matcher kinds."""
    if isinstance(matcher_or_compiled, Matcher):
        matches = matcher_or_compiled.iter_matches(reaction)
    else:
        matches = matcher_or_compiled.iter_matches(index, multiset, rng=rng)
    return [(m.consumed, m.binding) for m in matches]


class TestMatchPlan:
    def test_uniform_patterns_keep_declaration_order(self):
        plan = compile_reaction(fold_reaction()).plan
        assert plan.order == (0, 1)
        assert plan.is_identity

    def test_slots_assigned_in_first_encounter_order(self):
        plan = compile_reaction(fold_reaction()).plan
        assert plan.slots == ("a", "t1", "b", "t2")
        assert plan.slot_of == {"a": 0, "t1": 1, "b": 2, "t2": 3}

    def test_fixed_label_pattern_hoisted_before_variable_label(self):
        reaction = Reaction(
            name="R",
            replace=[
                ElementPattern(Var("x"), Var("lbl"), Var("v")),
                ElementPattern(Var("y"), Const("A"), Var("w")),
            ],
            branches=[Branch(productions=[template("x", "out", Const(0))])],
        )
        plan = compile_reaction(reaction).plan
        assert plan.order == (1, 0)
        assert not plan.is_identity

    def test_fixed_tag_breaks_ties_within_fixed_label_class(self):
        reaction = Reaction(
            name="R",
            replace=[
                ElementPattern(Var("x"), Const("A"), Var("v")),
                ElementPattern(Var("y"), Const("B"), Const(3)),
            ],
            branches=[Branch(productions=[template("x", "out", Const(0))])],
        )
        plan = compile_reaction(reaction).plan
        assert plan.order == (1, 0)

    def test_bound_variable_propagation_counts_as_known(self):
        # Shared tag variable: after the first pattern binds v, the remaining
        # patterns are tag-known, so declaration order is preserved — the
        # Algorithm-1 shape.
        reaction = Reaction(
            name="R",
            replace=[
                ElementPattern(Var("x"), Const("A"), Var("v")),
                ElementPattern(Var("y"), Const("B"), Var("v")),
            ],
            branches=[Branch(productions=[template("x", "out", Const(0))])],
        )
        plan = compile_reaction(reaction).plan
        assert plan.order == (0, 1)
        assert plan.selectivity == ((True, False), (True, True))

    def test_selectivity_recorded_per_step(self):
        reaction = Reaction(
            name="R",
            replace=[ElementPattern(Var("x"), Var("lbl"), Var("v"))],
            branches=[Branch(productions=[template("x", "out", Const(0))])],
        )
        plan = compile_reaction(reaction).plan
        assert plan.selectivity == ((False, False),)


class TestCompiledMatching:
    def test_matches_equal_interpreted_on_stdlib_programs(self):
        cases = [
            (sum_reduction(), values_multiset([3, 1, 4, 1, 5])),
            (min_element(), values_multiset([9, 2, 7, 2])),
            (exchange_sort(), indexed_multiset([5, 3, 8, 1])),
            (gcd_program(), values_multiset([12, 18, 24])),
        ]
        for program, initial in cases:
            index = LabelTagIndex(initial)
            interpreted = Matcher(initial, index=index)
            for reaction in program.reactions:
                compiled = compile_reaction(reaction)
                assert raw_matches(interpreted, reaction) == raw_matches(
                    compiled, reaction, index, initial
                )

    def test_shuffled_matching_consumes_rng_identically(self):
        program = gcd_program()
        initial = values_multiset([12, 18, 24, 30])
        index = LabelTagIndex(initial)
        rng_a, rng_b = random.Random(5), random.Random(5)
        interpreted = Matcher(initial, index=index, rng=rng_a)
        for reaction in program.reactions:
            compiled = compile_reaction(reaction)
            assert raw_matches(interpreted, reaction) == raw_matches(
                compiled, reaction, index, initial, rng=rng_b
            )
            found, twin = interpreted.find(reaction), compiled.find(index, initial, rng=rng_b)
            assert (found is None) == (twin is None)
            if found is not None:
                assert (found.consumed, found.binding) == (twin.consumed, twin.binding)
            assert rng_a.getstate() == rng_b.getstate()

    @pytest.mark.parametrize("compiled", [True, False])
    def test_seeded_find_draws_per_candidate_visited_not_per_bucket(self, counting_rng, compiled):
        # A probe that matches after visiting t candidates of a level pays
        # <= 2 (t + arity) calls there — never the 4 000-element bucket (one
        # full shuffle alone is >= n - 1 calls).  The guard-free fold matches
        # at once (t = 1, or 2 when slot 1 first draws slot 0's element);
        # under min_element any pair of distinct values is enabled one way
        # round, so t stays a handful.
        n, arity = 4_000, 2
        initial = values_multiset(range(n))
        for program, bound in (
            (sum_reduction(), 2 * (1 + arity) + 2 * (2 + arity)),
            (min_element(), 100),
        ):
            rng = counting_rng(11)
            scheduler = ReactionScheduler(program.reactions, initial, rng=rng, compiled=compiled)
            try:
                for _ in range(5):
                    before = rng.calls
                    assert scheduler.find_first(shuffled=True) is not None
                    assert rng.calls - before <= bound
            finally:
                scheduler.detach()

    def test_seeded_collect_draws_one_permutation_per_bucket(self, counting_rng):
        # One superstep over n distinct elements: both slots scan the same
        # bucket, whose snapshot is shuffled once (n - 1 indices, 1-2 calls
        # each).  The per-candidate reshuffle this replaced cost ~ n^2 / 2.
        n = 4_000
        rng = counting_rng(3)
        scheduler = ReactionScheduler(min_element().reactions, values_multiset(range(n)), rng=rng)
        try:
            matches = scheduler.collect_superstep_matches()
        finally:
            scheduler.detach()
        assert sum(match.times for match in matches) == n // 2
        assert n - 1 <= rng.calls <= 3 * n

    def test_multiplicity_respected_for_duplicate_elements(self):
        reaction = fold_reaction()
        compiled = compile_reaction(reaction)
        single = values_multiset([4])
        index = LabelTagIndex(single)
        assert compiled.find(index, single) is None  # one copy cannot pair with itself
        double = Multiset([Element(4, "x", 0), Element(4, "x", 0)])
        index = LabelTagIndex(double)
        match = compiled.find(index, double)
        assert match is not None
        assert match.consumed == (Element(4, "x", 0), Element(4, "x", 0))

    def test_find_limit_and_iter_limit(self):
        reaction = fold_reaction()
        compiled = compile_reaction(reaction)
        initial = values_multiset([1, 2, 3])
        index = LabelTagIndex(initial)
        assert len(list(compiled.iter_matches(index, initial, limit=2))) == 2

    def test_compiled_match_is_a_match(self):
        compiled = compile_reaction(fold_reaction())
        initial = values_multiset([1, 2])
        index = LabelTagIndex(initial)
        match = compiled.find(index, initial)
        assert isinstance(match, CompiledMatch)
        assert match.reaction.name == "Rsum"
        assert match.produced() == [Element(3, "x", 0)]

    def test_guard_errors_propagate_like_interpreter(self):
        # Guard divides by zero for the only candidate pair.
        reaction = Reaction(
            name="Rdiv",
            replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2")],
            branches=[Branch(productions=[template("a", "x", Const(0))])],
            guard=(var("a") / var("b")) > 0,
        )
        initial = values_multiset([5, 0])
        index = LabelTagIndex(initial)
        compiled = compile_reaction(reaction)
        interpreted = Matcher(initial, index=index)
        with pytest.raises(EvaluationError):
            list(interpreted.iter_matches(reaction))
        with pytest.raises(EvaluationError):
            list(compiled.iter_matches(index, initial))

    def test_incomparable_guard_raises_evaluation_error(self):
        reaction = Reaction(
            name="Rcmp",
            replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2")],
            branches=[Branch(productions=[template("a", "x", Const(0))])],
            guard=var("a") < var("b"),
        )
        initial = Multiset([Element("s", "x", 0), Element(1, "x", 0)])
        index = LabelTagIndex(initial)
        compiled = compile_reaction(reaction)
        with pytest.raises(EvaluationError):
            list(compiled.iter_matches(index, initial))

    def test_variable_label_reaction_matches_set_equivalent(self):
        # Non-identity plan: match enumeration order may differ, the match
        # set may not.
        reaction = Reaction(
            name="Rvl",
            replace=[
                ElementPattern(Var("x"), Var("lbl"), Var("v")),
                ElementPattern(Var("y"), Const("A"), Var("w")),
            ],
            branches=[Branch(productions=[template("x", "out", Const(0))])],
        )
        initial = Multiset(
            [Element(1, "A", 0), Element(2, "B", 0), Element(3, "A", 1)]
        )
        index = LabelTagIndex(initial)
        interpreted = Matcher(initial, index=index)
        compiled = compile_reaction(reaction)
        expected = raw_matches(interpreted, reaction)
        got = raw_matches(compiled, reaction, index, initial)
        key = lambda pair: (repr(pair[0]), sorted(pair[1].items(), key=repr))
        assert sorted(got, key=key) == sorted(expected, key=key)


class TestCompiledApply:
    def test_branch_selection_matches_interpreter(self):
        reaction = Reaction(
            name="Rbranch",
            replace=[pattern("a", "x", "t")],
            branches=[
                Branch(
                    productions=[template(Const(1), "pos", Const(0))],
                    condition=var("a") > 0,
                ),
                Branch(productions=[template(Const(0), "neg", Const(0))]),
            ],
        )
        compiled = compile_reaction(reaction)
        assert compiled.apply({"a": 5, "t": 0}) == reaction.apply({"a": 5, "t": 0})
        assert compiled.apply({"a": -5, "t": 0}) == reaction.apply({"a": -5, "t": 0})

    def test_not_enabled_raises_value_error(self):
        reaction = Reaction(
            name="Rcond",
            replace=[pattern("a", "x", "t")],
            branches=[
                Branch(
                    productions=[template("a", "x", Const(0))],
                    condition=var("a") > 0,
                )
            ],
        )
        compiled = compile_reaction(reaction)
        with pytest.raises(ValueError):
            compiled.apply({"a": -1, "t": 0})

    def test_production_type_errors_match_interpreter(self):
        tmpl = ElementTemplate(value=Const(1), label=Var("a"), tag=Const(0))
        reaction = Reaction(
            name="Rbad",
            replace=[pattern("a", "x", "t")],
            branches=[Branch(productions=[tmpl])],
        )
        compiled = compile_reaction(reaction)
        binding = {"a": 123, "t": 0}  # non-string produced label
        with pytest.raises(TypeError, match="produced label must be a string"):
            reaction.apply(dict(binding))
        with pytest.raises(TypeError, match="produced label must be a string"):
            compiled.apply(binding)

    def test_constant_production_is_shared_element(self):
        reaction = Reaction(
            name="Rconst",
            replace=[pattern("a", "x", "t")],
            branches=[Branch(productions=[template(Const(1), "out", Const(0))])],
        )
        compiled = compile_reaction(reaction)
        first = compiled.apply({"a": 0, "t": 0})
        second = compiled.apply({"a": 9, "t": 0})
        assert first == second == [Element(1, "out", 0)]
        assert first[0] is second[0]  # precomputed immutable element is shared


class _OpaqueExpr(Expr):
    """An Expr subclass the code generator has never heard of."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        object.__setattr__(self, "inner", inner)

    def evaluate(self, env):
        return self.inner.evaluate(env) * 2

    def variables(self):
        return self.inner.variables()


class TestClosureFallback:
    def test_compile_expr_falls_back_for_unknown_nodes(self):
        fn = compile_expr(_OpaqueExpr(var("a")))
        assert fn({"a": 21}) == 42

    def test_reaction_with_opaque_guard_still_compiles(self):
        # guard: 2*a > b via the opaque node
        from repro.gamma.expr import Compare

        reaction = Reaction(
            name="Ropaque",
            replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2")],
            branches=[Branch(productions=[template("a", "x", Const(0))])],
            guard=Compare(">", _OpaqueExpr(var("a")), var("b")),
        )
        initial = values_multiset([3, 5])
        index = LabelTagIndex(initial)
        compiled = compile_reaction(reaction)
        interpreted = Matcher(initial, index=index)
        assert raw_matches(interpreted, reaction) == raw_matches(
            compiled, reaction, index, initial
        )

    def test_opaque_production_value(self):
        tmpl = ElementTemplate(value=_OpaqueExpr(var("a")), label=Const("out"), tag=Const(0))
        reaction = Reaction(
            name="Rprod",
            replace=[pattern("a", "x", "t")],
            branches=[Branch(productions=[tmpl])],
        )
        compiled = compile_reaction(reaction)
        assert compiled.apply({"a": 4, "t": 0}) == [Element(8, "out", 0)]
        assert compiled.apply({"a": 4, "t": 0}) == reaction.apply({"a": 4, "t": 0})


class TestMatcherIntegration:
    def test_matcher_compiled_flag_routes_to_compiled_reactions(self):
        initial = values_multiset([1, 2, 3])
        matcher = Matcher(initial, compiled=True)
        reaction = fold_reaction()
        assert matcher.compiled_for(reaction) is not None
        match = matcher.find(reaction)
        assert isinstance(match, CompiledMatch)

    def test_matcher_default_stays_interpreted(self):
        initial = values_multiset([1, 2, 3])
        matcher = Matcher(initial)
        match = matcher.find(fold_reaction())
        assert match is not None
        assert not isinstance(match, CompiledMatch)

    def test_generated_sources_are_exposed(self):
        compiled = compile_reaction(fold_reaction())
        assert set(compiled.sources) == {"find_det", "find_rng", "iter_det", "iter_rng"}
        assert "def matcher" in compiled.sources["find_det"]

    def test_collector_source_is_generated_lazily(self):
        from repro.multiset import LabelTagIndex, Multiset

        compiled = compile_reaction(fold_reaction())
        assert compiled.supports_collect
        assert "collect_det" not in compiled.sources  # not built at compile()
        multiset = Multiset([(1, "x", 0), (2, "x", 0)])
        index = LabelTagIndex(multiset)
        list(compiled.collect(index, multiset, {}))
        assert "def matcher" in compiled.sources["collect_det"]


class _ScaledExpr(Expr):
    """Opaque to the code generator; instances differ only in ``factor``."""

    __slots__ = ("inner", "factor")

    def __init__(self, inner, factor):
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "factor", factor)

    def evaluate(self, env):
        return self.inner.evaluate(env) * self.factor

    def variables(self):
        return self.inner.variables()


def _pair_reaction(name, labels=("x", "x"), op="<", bump=0, guard=None, value=None):
    """``replace [a, l0], [b, l1] by [a + bump, 'out'] where a <op> b``."""
    from repro.gamma.expr import BinOp, Compare

    return Reaction(
        name=name,
        replace=[pattern("a", labels[0], "t1"), pattern("b", labels[1], "t2")],
        branches=[
            Branch(
                productions=[
                    ElementTemplate(
                        value=value if value is not None else BinOp("+", var("a"), Const(bump)),
                        label=Const("out"),
                        tag=Const(0),
                    )
                ]
            )
        ],
        guard=guard if guard is not None else Compare(op, var("a"), var("b")),
    )


@pytest.fixture
def cold_compile(monkeypatch):
    """Compile against empty stage-1 caches: what a per-reaction compiler does."""
    from repro.gamma import codecache, compiled as module

    def compile_cold(reaction):
        with monkeypatch.context() as patch:
            patch.setattr(
                module, "_SHAPES",
                codecache.CodeCache("compiled-shape", module._NAMESPACE, unit=module._ShapeCode),
            )
            patch.setattr(
                module, "_EXPRS", codecache.CodeCache("compiled-expr", module._NAMESPACE)
            )
            return compile_reaction(reaction)

    return compile_cold


class TestShapeSharing:
    """Isomorphic reactions share code objects, never bindings.

    ``x < y`` and ``x > y`` lower to the same source ``H[0](s0, s2)``; so do
    reactions differing only in labels or literals.  A shape cache that forgot
    to rebind ``(C, H)`` per reaction would silently run the wrong comparison.
    """

    MULTISET = Multiset(
        [Element(v, label, 0) for label in ("x", "y") for v in (1, 2, 2, 3, 5)]
        + [Element(4, "z", 0), Element(6, "z", 0)]
    )

    def assert_shared_but_faithful(self, reactions, cold_compile):
        multiset = self.MULTISET
        index = LabelTagIndex(multiset)
        shared = [compile_reaction(r) for r in reactions]
        assert len({c.shape for c in shared}) == 1
        for attr in ("_find_det", "_find_rng", "_iter_det", "_iter_rng"):
            assert len({getattr(c, attr).__code__ for c in shared}) == 1
            assert len({getattr(c, attr) for c in shared}) == len(shared)
        outcomes = []
        for reaction, warm in zip(reactions, shared):
            cold = cold_compile(reaction)
            assert cold._find_det.__code__ is not warm._find_det.__code__
            assert cold.sources == warm.sources
            expected = raw_matches(Matcher(multiset, index=index), reaction)
            produced = [reaction.apply(dict(binding)) for _, binding in expected]
            for compiled in (warm, cold):
                got = list(compiled.iter_matches(index, multiset))
                assert [(m.consumed, m.binding) for m in got] == expected
                assert [m.produced() for m in got] == produced
                first = compiled.find(index, multiset)
                assert (first.consumed, first.binding) == expected[0]
                assert first.produced() == produced[0]
            rng_interp, rng_warm, rng_cold = (random.Random(5) for _ in range(3))
            seeded = raw_matches(Matcher(multiset, index=index, rng=rng_interp), reaction)
            assert raw_matches(warm, reaction, index, multiset, rng=rng_warm) == seeded
            assert raw_matches(cold, reaction, index, multiset, rng=rng_cold) == seeded
            assert rng_warm.getstate() == rng_cold.getstate() == rng_interp.getstate()
            outcomes.append((expected, produced))
        # The reactions really do differ: sharing must not have merged them.
        assert all(outcomes[0] != other for other in outcomes[1:])

    def test_comparison_operators_do_not_alias(self, cold_compile):
        self.assert_shared_but_faithful(
            [_pair_reaction(f"R{op}", op=op) for op in ("<", ">", "==", "!=")],
            cold_compile,
        )

    def test_labels_do_not_alias(self, cold_compile):
        # Same collision structure (two distinct constants), different labels.
        self.assert_shared_but_faithful(
            [
                _pair_reaction("Rxy", labels=("x", "y")),
                _pair_reaction("Ryx", labels=("y", "x")),
                _pair_reaction("Rxz", labels=("x", "z")),
            ],
            cold_compile,
        )

    def test_literals_do_not_alias(self, cold_compile):
        from repro.gamma.expr import BinOp, Compare

        self.assert_shared_but_faithful(
            [
                _pair_reaction(
                    f"R{limit}",
                    bump=limit,
                    guard=Compare("<", BinOp("+", var("a"), Const(limit)), var("b")),
                )
                for limit in (0, 1, 2)
            ],
            cold_compile,
        )

    def test_composed_fallbacks_do_not_alias(self, cold_compile):
        from repro.gamma.expr import Compare

        self.assert_shared_but_faithful(
            [
                _pair_reaction(
                    f"Rx{factor}",
                    guard=Compare("<", _ScaledExpr(var("a"), factor), var("b")),
                    value=_ScaledExpr(var("a"), factor),
                )
                for factor in (1, 2, 3)
            ],
            cold_compile,
        )

    def test_equal_labels_are_a_different_shape_than_distinct_ones(self):
        # Constant *values* shape the code in exactly one place: patterns
        # with different constants cannot collide, so the multiplicity check
        # is pruned.  That must split the shapes, not alias them.
        same = compile_reaction(_pair_reaction("Rxx", labels=("x", "x")))
        distinct = compile_reaction(_pair_reaction("Rxy", labels=("x", "y")))
        assert same.shape != distinct.shape
        assert "mcount" in same.sources["find_det"].split("\n", 2)[2]
        assert "mcount(e1)" not in distinct.sources["find_det"]


class TestReviewRegressions:
    def test_compile_expr_unbound_variable_raises_evaluation_error(self):
        from repro.gamma import EvaluationError, compile_expr

        with pytest.raises(EvaluationError, match="unbound reaction variable"):
            compile_expr(var("x"))({})

    def test_rewrite_unchecked_raises_on_absent_element(self):
        multiset = Multiset([Element(1, "a", 0), Element(2, "a", 0)])
        multiset.rewrite_unchecked([Element(1, "a", 0)], [])
        with pytest.raises(KeyError):
            multiset.rewrite_unchecked([Element(1, "a", 0)], [])
