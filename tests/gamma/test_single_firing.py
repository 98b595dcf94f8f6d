"""The single-firing path: compiled probe hits produce through the shared
production function.

The sequential and chaotic engines fire one match per step.  A compiled hit
is a :class:`CompiledMatch` built without the frozen dataclass's
constructor, and its :meth:`~CompiledMatch.produced` runs the reaction's
count-free production function over the binding's slots — the same
generated code the superstep collectors count through — instead of the
per-template closures :meth:`CompiledReaction.apply` keeps for direct
callers.  These tests pin that the two agree (values, value types, raised
exceptions), and gate the per-hit costs the path removed.
"""

import random
from collections import Counter
from unittest import mock

import pytest

from repro.core import dataflow_to_gamma
from repro.gamma import (
    ChaoticEngine,
    ReactionScheduler,
    SequentialEngine,
    Trace,
    compile_reaction,
)
from repro.gamma import compiled as compiled_module
from repro.gamma.compiled import CompiledMatch, CompiledReaction
from repro.gamma.expr import BinOp, Const, EvaluationError, Var, var
from repro.gamma.pattern import ElementTemplate, pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import exchange_sort, min_element, values_multiset
from repro.multiset import Element, Multiset
from repro.workloads import ExpressionSpec, random_expression_graph


def _engine(mode, compiled):
    if mode == "sequential":
        return SequentialEngine(compiled=compiled), None
    return ChaoticEngine(seed=3, compiled=compiled), random.Random(3)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("mode", ["sequential", "chaotic"])
@pytest.mark.parametrize(
    "production, value, error",
    [
        # An int label fails the template's label check.
        (ElementTemplate(Const(1), Var("a"), Const(0)), 0, TypeError),
        # A negative tag fails Element's own check.
        (ElementTemplate(Const(1), Const("out"), Var("a")), -2, ValueError),
        # 1 / 0 fails the expression evaluator.
        (ElementTemplate(BinOp("/", Const(1), Var("a")), Const("out"), Const(0)), 0, EvaluationError),
    ],
    ids=["int-label", "negative-tag", "division-by-zero"],
)
def test_raising_production_leaves_the_multiset_untouched(mode, compiled, production, value, error):
    reaction = Reaction("Rraise", [pattern("a", "x", "t")], [Branch(productions=[production])])
    multiset = Multiset()
    multiset.add(Element(value, "x", 0), 2)
    multiset.add(Element(7, "y", 0))
    before = multiset.copy()
    engine, rng = _engine(mode, compiled)
    scheduler = ReactionScheduler([reaction], multiset, rng=rng, compiled=compiled)
    trace = Trace()
    try:
        with pytest.raises(error):
            engine.drain(scheduler, multiset, trace, max_steps=10)
    finally:
        scheduler.detach()
    assert multiset == before
    assert list(multiset.counts()) == list(before.counts())
    assert trace.num_steps == 1 and trace.num_firings == 0


class TestHandBuiltMatch:
    def test_binding_out_of_slot_order_produces_like_apply(self):
        # Slots are a, i, b, j; the binding lists them backwards.
        reaction = exchange_sort().reactions[0]
        compiled = compile_reaction(reaction)
        consumed = (Element(9, "x", 0), Element(3, "x", 1))
        binding = {"j": 1, "b": 3, "i": 0, "a": 9}
        match = CompiledMatch(
            reaction=reaction, consumed=consumed, binding=binding, compiled=compiled
        )
        produced = match.produced()
        assert produced == compiled.apply(binding) == reaction.apply(dict(binding))
        assert produced == [Element(3, "x", 0), Element(9, "x", 1)]
        assert isinstance(produced, list)

    def test_checked_templates_read_their_slots_by_name(self):
        # Variable label and tag: the production validates both per firing.
        reaction = Reaction(
            "Rmove",
            [pattern("a", "l", "t", label_is_variable=True), pattern("b", "dst", "u")],
            [Branch(productions=[ElementTemplate(var("a") + var("b"), Var("l"), Var("u"))])],
        )
        compiled = compile_reaction(reaction)
        consumed = (Element(4, "src", 2), Element(5, "dst", 1))
        binding = {"u": 1, "b": 5, "t": 2, "l": "src", "a": 4}
        match = CompiledMatch(
            reaction=reaction, consumed=consumed, binding=binding, compiled=compiled
        )
        assert match.produced() == compiled.apply(binding) == [Element(9, "src", 1)]

    def test_binding_enabling_no_branch_raises_value_error(self):
        reaction = Reaction(
            "Rcond",
            [pattern("a", "x", "t")],
            [Branch(productions=[template("a", "x", Const(0))], condition=var("a") > 0)],
        )
        compiled = compile_reaction(reaction)
        match = CompiledMatch(
            reaction=reaction,
            consumed=(Element(-1, "x", 0),),
            binding={"t": 0, "a": -1},
            compiled=compiled,
        )
        with pytest.raises(ValueError):
            match.produced()
        with pytest.raises(ValueError):
            compiled.apply(match.binding)


class TestCompiledHit:
    def test_find_hit_is_an_ordinary_match(self):
        reaction = min_element().reactions[0]
        compiled = compile_reaction(reaction)
        multiset = values_multiset([5, 2])
        scheduler = ReactionScheduler([reaction], multiset)
        try:
            match = scheduler.find_first()
        finally:
            scheduler.detach()
        expected = CompiledMatch(
            reaction=reaction,
            consumed=match.consumed,
            binding=dict(match.binding),
            compiled=match.compiled,
        )
        assert isinstance(match, CompiledMatch)
        assert match == expected and match.times == 1
        assert repr(match) == repr(expected)
        assert match.produced() == compiled.apply(match.binding)


def _dag_conversion():
    graph = random_expression_graph(
        ExpressionSpec(num_inputs=128, num_operations=512, ops=("+", "-"), seed=5)
    )
    conversion = dataflow_to_gamma(graph)
    return conversion.program, conversion.initial


def _min_element_run():
    values = list(range(1, 10_001))
    random.Random(2).shuffle(values)
    return min_element(), values_multiset(values)


@pytest.mark.parametrize("build", [_min_element_run, _dag_conversion], ids=["min_element", "dag512"])
def test_compiled_sequential_run_builds_no_match_and_no_closure(build):
    # The count gate: a compiled hit is built without CompiledMatch.__init__,
    # produces without the per-template closures (none are compiled), and
    # CompiledReaction.apply still builds them on its first call.
    program, initial = build()
    calls = Counter()
    real_init, real_template = CompiledMatch.__init__, compiled_module._compile_template

    def init(self, *args, **kwargs):
        calls["match"] += 1
        real_init(self, *args, **kwargs)

    def compile_template(template):
        calls["template"] += 1
        return real_template(template)

    with mock.patch.object(CompiledMatch, "__init__", init), mock.patch.object(
        compiled_module, "_compile_template", compile_template
    ):
        result = SequentialEngine().run(program, initial)
        assert result.stable and result.firings > 0
        assert calls == Counter()

        multiset = initial.copy()
        scheduler = ReactionScheduler(program.reactions, multiset)
        try:
            match = scheduler.find_first()
        finally:
            scheduler.detach()
        compiled = match.compiled
        assert isinstance(compiled, CompiledReaction) and compiled._branches is None
        assert compiled.apply(match.binding) == match.produced()
        assert calls["template"] == sum(
            len(branch.productions) for branch in match.reaction.branches
        )
        assert calls["match"] == 0
