"""Stage 1 of the reaction compiler: the bounded shape -> code cache.

Covers what sharing code across reactions adds on top of
``test_compiled.py``: the machine-independent shape-count gate on the paper's
conversion path, the cache bound, concurrent compilation, the ``sources``
contract, and the observability hooks (``compile_cache_info``, ``linecache``,
matcher names).
"""

import linecache
import random
import sys
import threading
import traceback

import pytest

from repro.api import RuntimeConfig, run
from repro.core import dataflow_to_gamma
from repro.frontend import compile_source_to_graph
from repro.gamma import (
    Branch,
    Const,
    ElementTemplate,
    Matcher,
    Reaction,
    compile_reaction,
    pattern,
    var,
)
from repro.gamma import compiled as compiled_module
from repro.gamma.codecache import CACHE_CAP, CodeCache
from repro.gamma.compiled import compile_cache_info
from repro.gamma.expr import BinOp, Compare
from repro.gamma.stdlib import min_element, sum_reduction, values_multiset
from repro.multiset import Element, LabelTagIndex, Multiset
from repro.workloads import ExpressionSpec, random_expression_graph, triangular


def chain_reaction(arity, name="Rchain"):
    """``arity`` same-label patterns with an ascending-chain guard: one fresh
    shape per arity."""
    names = [f"v{i}" for i in range(arity)]
    guard = None
    for left, right in zip(names, names[1:]):
        term = Compare("<", var(left), var(right))
        guard = term if guard is None else guard.and_(term)
    return Reaction(
        name=name,
        replace=[pattern(n, "x", f"t{i}") for i, n in enumerate(names)],
        branches=[
            Branch(productions=[ElementTemplate(var(names[0]), Const("out"), Const(0))])
        ],
        guard=guard,
    )


def raw(matches):
    return [(m.consumed, m.binding) for m in matches]


@pytest.fixture
def small_cache(monkeypatch):
    """A private two-entry shape cache (the module one is shared by every test)."""
    cache = CodeCache(
        "compiled-shape", compiled_module._NAMESPACE, cap=2, unit=compiled_module._ShapeCode
    )
    monkeypatch.setattr(compiled_module, "_SHAPES", cache)
    return cache


class TestShapeCountGate:
    """Deterministic, machine-independent form of the df_pipeline claim:
    Algorithm 1's output is a handful of shapes, whatever the graph seed."""

    @staticmethod
    def conversions():
        graphs = [
            random_expression_graph(
                ExpressionSpec(num_inputs=128, num_operations=512, ops=("+", "-"), seed=seed)
            )
            for seed in (7, 8)
        ]
        kernel = triangular(1000)
        graphs.append(compile_source_to_graph(kernel.source, name=kernel.name))
        return [dataflow_to_gamma(graph) for graph in graphs]

    def test_df_pipeline_inputs_compile_to_a_handful_of_shapes(self):
        seed_a, seed_b, loop = self.conversions()
        per_input = [
            {compile_reaction(r).shape for r in conversion.program.reactions}
            for conversion in (seed_a, seed_b, loop)
        ]
        assert len(seed_a.program.reactions) >= 512
        assert per_input[0] == per_input[1]  # equal across graph seeds
        assert len(per_input[0] | per_input[2]) <= 8

    def test_rerunning_a_program_adds_no_shapes(self):
        conversion = self.conversions()[2]
        config = RuntimeConfig(engine="sequential")
        first = run(conversion.program, conversion.initial, config=config)
        before = compile_cache_info()
        second = run(conversion.program, conversion.initial, config=config)
        after = compile_cache_info()
        assert second.final == first.final
        assert after.shapes == before.shapes
        assert after.misses == before.misses
        assert after.hits - before.hits == len(conversion.program.reactions)


class TestCacheBound:
    def test_cap_is_a_module_constant(self):
        assert compiled_module._SHAPES.cap == CACHE_CAP
        assert compile_cache_info().shapes <= CACHE_CAP

    def test_eviction_at_the_cap_and_correct_recompile(self, small_cache):
        multiset = values_multiset([4, 1, 3, 2])
        index = LabelTagIndex(multiset)
        evicted_first = compile_reaction(chain_reaction(1))
        filename = evicted_first._code.filename("find_det")
        assert filename in linecache.cache
        for arity in (2, 3):
            compile_reaction(chain_reaction(arity))
        assert (len(small_cache), small_cache.misses, small_cache.evictions) == (2, 3, 1)
        assert filename not in linecache.cache  # bounded with the cache
        # The evicted shape's live matchers keep working ...
        reaction = chain_reaction(1)
        expected = raw(Matcher(multiset, index=index).iter_matches(reaction))
        assert raw(evicted_first.iter_matches(index, multiset)) == expected
        # ... and recompiling it yields fresh code with the same behaviour.
        recompiled = compile_reaction(reaction)
        assert (small_cache.misses, small_cache.evictions) == (4, 2)
        assert recompiled._find_det.__code__ is not evicted_first._find_det.__code__
        assert recompiled.sources == evicted_first.sources
        assert raw(recompiled.iter_matches(index, multiset)) == expected

    def test_recently_used_shapes_survive(self, small_cache):
        compile_reaction(chain_reaction(1))
        compile_reaction(chain_reaction(2))
        compile_reaction(chain_reaction(1))  # refresh arity 1
        compile_reaction(chain_reaction(3))  # evicts arity 2, the LRU entry
        misses = small_cache.misses
        compile_reaction(chain_reaction(1))
        assert small_cache.misses == misses
        compile_reaction(chain_reaction(2))
        assert small_cache.misses == misses + 1

    def test_variant_built_after_eviction_is_not_filed(self, small_cache):
        held = compile_reaction(chain_reaction(2))
        compile_reaction(chain_reaction(1))
        compile_reaction(chain_reaction(3))  # evicts arity 2 while `held` lives
        multiset = values_multiset([1, 2, 3])
        matches = list(held.collect(LabelTagIndex(multiset), multiset, {}))
        assert matches and "collect_det" in held.sources
        assert held._code.filename("collect_det") not in linecache.cache


class TestConcurrentCompile:
    def test_eight_threads_compiling_one_shape(self, small_cache):
        # Gateway tenants compile off the main thread; a fresh shape hit by
        # eight threads at once must be generated once and work everywhere.
        multiset = values_multiset([5, 3, 8, 1, 9, 2])
        index = LabelTagIndex(multiset)
        reactions = [chain_reaction(2, name=f"R{i}") for i in range(8)]
        expected = raw(Matcher(multiset, index=index).iter_matches(reactions[0]))
        barrier = threading.Barrier(8)
        results, errors = [None] * 8, []

        def work(i):
            try:
                barrier.wait(timeout=10)
                compiled = compile_reaction(reactions[i])
                collected = list(compiled.collect(index, multiset, {}))
                results[i] = (compiled, raw(compiled.iter_matches(index, multiset)), collected)
            except BaseException as exc:  # surfaced below, never swallowed
                errors.append(exc)
                raise

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert (small_cache.misses, small_cache.hits) == (1, 7)
        for variant in ("_find_det", "_collect_det"):
            assert len({getattr(c, variant).__code__ for c, _, _ in results}) == 1
        for i, (compiled, matches, collected) in enumerate(results):
            assert matches == expected, f"thread {i}"
            assert collected and compiled.reaction is reactions[i]


class TestSourcesContract:
    def test_four_variants_after_compile_lazy_ones_after_first_use(self):
        compiled = compile_reaction(min_element().reactions[0])
        eager = {"find_det", "find_rng", "iter_det", "iter_rng"}
        assert set(compiled.sources) == eager
        multiset = values_multiset([3, 1, 2])
        index = LabelTagIndex(multiset)
        list(compiled.collect(index, multiset, {}))
        assert set(compiled.sources) == eager | {"collect_det"}
        list(compiled.collect(index, multiset, {}, rng=random.Random(1)))
        assert set(compiled.sources) == eager | {"collect_det", "collect_rng"}
        assert compiled.vectorized() is not None
        assert set(compiled.sources) == eager | {"collect_det", "collect_rng", "vector_mask"}
        for key in eager | {"collect_det", "collect_rng"}:
            assert "def matcher" in compiled.sources[key]

    def test_sources_are_free_of_labels_and_literals(self):
        reaction = Reaction(
            name="Rlit",
            replace=[pattern("a", "needle-label", Const(41))],
            branches=[
                Branch(productions=[ElementTemplate(var("a"), Const("out"), Const(0))])
            ],
            guard=Compare(">", BinOp("+", var("a"), Const(123456)), Const(654321)),
        )
        compiled = compile_reaction(reaction)
        for source in compiled.sources.values():
            for literal in ("needle-label", "41", "123456", "654321"):
                assert literal not in source

    def test_production_functions_share_code_across_labels_and_literals(self):
        # The collectors' production functions are keyed like shapes: labels
        # and literals are bindings, so two reactions differing only there
        # run one generated function, whose source names neither.
        def shifted(label, offset):
            return Reaction(
                name=f"Rshift{offset}",
                replace=[pattern("a", label, "t1"), pattern("b", label, "t2")],
                branches=[
                    Branch(
                        productions=[
                            ElementTemplate(BinOp("+", var("a"), Const(offset)), Const(label), Const(0))
                        ]
                    )
                ],
                guard=Compare("<", var("a"), var("b")),
            )

        produced = []
        for label, offset in (("needle-x", 123456), ("needle-y", 654321)):
            compiled = compile_reaction(shifted(label, offset))
            multiset = Multiset([Element(1, label, 0), Element(2, label, 0)])
            (match,) = compiled.collect(LabelTagIndex(multiset), multiset, {})
            assert match.produced() == [Element(1 + offset, label, 0)]
            produced.append(compiled._produce)
        low, high = produced
        assert low.__code__ is high.__code__
        source = "".join(linecache.getlines(low.__code__.co_filename))
        assert "def produce" in source
        for literal in ("needle", "123456", "654321"):
            assert literal not in source

    def test_mask_programs_share_code_across_literals(self):
        def bounded(limit):
            return Reaction(
                name=f"Rb{limit}",
                replace=[pattern("a", "x", "t1"), pattern("b", "x", "t2")],
                branches=[
                    Branch(productions=[ElementTemplate(var("a"), Const("x"), Const(0))])
                ],
                guard=Compare("<", BinOp("+", var("a"), Const(limit)), var("b")),
            )

        low, high = (compile_reaction(bounded(limit)).vectorized() for limit in (1, 1000))
        assert low.pair_sca.__code__ is high.pair_sca.__code__
        assert low.source == high.source and "1000" not in high.source
        assert low.pair_sca(1, 0, 3, 0) and not high.pair_sca(1, 0, 3, 0)
        assert high.pair_sca(1, 0, 2000, 0)


class TestObservability:
    def test_cache_info_counts_lookups(self):
        before = compile_cache_info()
        compile_reaction(sum_reduction().reactions[0])
        compile_reaction(sum_reduction().reactions[0])
        after = compile_cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == 2
        assert after.hits - before.hits >= 1
        assert after._fields == ("shapes", "hits", "misses", "evictions")

    def test_matchers_carry_their_reaction_name(self):
        first = compile_reaction(chain_reaction(2, name="Alpha"))
        second = compile_reaction(chain_reaction(2, name="Beta"))
        assert first._find_det.__code__ is second._find_det.__code__
        assert first._find_det.__qualname__ == "Alpha.find_det"
        assert second._iter_rng.__qualname__ == "Beta.iter_rng"

    def test_tracebacks_through_generated_matchers_show_source_lines(self):
        reaction = Reaction(
            name="Rboom",
            replace=[pattern("a", "x", "t")],
            branches=[
                Branch(productions=[ElementTemplate(var("a"), Const("out"), Const(0))])
            ],
            guard=Compare(">", BinOp("/", Const(1), var("a")), Const(0)),
        )
        compiled = compile_reaction(reaction)
        multiset = Multiset([Element(0, "x", 0)])
        with pytest.raises(Exception) as info:
            compiled.find(LabelTagIndex(multiset), multiset)
        frames = traceback.extract_tb(info.value.__traceback__)
        generated = [f for f in frames if f.filename.startswith("<compiled-shape ")]
        assert generated and generated[0].filename.endswith(":find_det>")
        assert "_div(" in generated[0].line  # a real line, not an empty string
        assert generated[0].line == (
            compiled.sources["find_det"].splitlines()[generated[0].lineno - 1].strip()
        )


class TestMatcherCacheKey:
    def test_equal_reactions_share_one_compiled_form(self):
        matcher = Matcher(values_multiset([1, 2]), compiled=True)
        first, twin = min_element().reactions[0], min_element().reactions[0]
        assert first is not twin and first == twin
        assert matcher.compiled_for(first) is matcher.compiled_for(twin)

    def test_unhashable_reaction_falls_back_to_per_instance(self):
        def listy():
            return Reaction(
                name="Rlist",
                replace=[pattern("a", "x", "t")],
                branches=[
                    Branch(productions=[ElementTemplate(Const([1, 2]), Const("out"), Const(0))])
                ],
            )

        first, twin = listy(), listy()
        with pytest.raises(TypeError):
            hash(first)
        matcher = Matcher(values_multiset([1]), compiled=True)
        compiled = matcher.compiled_for(first)
        assert compiled is not None and matcher.compiled_for(first) is compiled
        assert matcher.compiled_for(twin) is not compiled
        assert matcher.find(first).consumed == (Element(1, "x", 0),)
