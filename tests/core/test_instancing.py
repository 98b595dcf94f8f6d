"""Experiment E5: Fig. 4 instancing and the dataflow emulation of Gamma execution."""

import pytest

from repro.core import (
    check_gamma_vs_dataflow,
    dataflow_to_gamma,
    execute_via_dataflow,
    instantiate_round,
    program_to_graphs,
)
from repro.dataflow import run_graph
from repro.gamma import GammaProgram, ParallelEngine, run
from repro.gamma.expr import var
from repro.gamma.pattern import pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import (
    gcd_program,
    min_element,
    prime_sieve,
    remove_duplicates,
    sum_reduction,
    values_multiset,
)
from repro.multiset import Element, Multiset
from repro.workloads.paper_examples import example2_expected_result, example2_graph
from repro.api import RuntimeConfig


class TestFig4Instancing:
    def test_six_elements_give_three_instances(self):
        """Fig. 4: a binary reaction over a 6-element multiset replicates 3 times."""
        program = sum_reduction()
        multiset = values_multiset([1, 2, 3, 4, 5, 6])
        instanced = instantiate_round(program, multiset)
        assert instanced.num_instances == 3
        assert len(instanced.leftover) == 0

    def test_odd_multiset_leaves_leftover(self):
        instanced = instantiate_round(sum_reduction(), values_multiset([1, 2, 3, 4, 5]))
        assert instanced.num_instances == 2
        assert len(instanced.leftover) == 1

    def test_instanced_graph_is_runnable_and_correct(self):
        program = sum_reduction()
        multiset = values_multiset([1, 2, 3, 4, 5, 6])
        instanced = instantiate_round(program, multiset)
        result = run_graph(instanced.graph)
        produced = sorted(v for tokens in result.outputs.values() for v in (t.value for t in tokens))
        # Three pairwise sums of a partition of {1..6}: values depend on the pairing
        # but their total is always 21.
        assert sum(produced) == 21
        assert len(produced) == 3

    def test_no_matches_returns_none(self):
        assert instantiate_round(min_element(), values_multiset([5])) is None

    def test_instances_have_disjoint_node_ids(self):
        instanced = instantiate_round(sum_reduction(), values_multiset([1, 2, 3, 4]))
        ids = [n.node_id for n in instanced.graph.nodes]
        assert len(ids) == len(set(ids))

    def test_multiplicity_expands_into_one_instance_per_firing(self):
        # 3 x 1, 5 x 2, 4 x 3 under min_element: the superstep decides
        # ((1, 2), 3) and ((2, 3), 2) — five firings, so five instances.
        multiset = values_multiset([1] * 3 + [2] * 5 + [3] * 4)
        instanced = instantiate_round(min_element(), multiset)
        assert instanced.num_instances == 5
        assert all(info.match.times == 1 for info in instanced.instances)
        assert sorted(e.value for e in instanced.leftover) == [3, 3]
        ids = [n.node_id for n in instanced.graph.nodes]
        assert len(ids) == len(set(ids))
        result = run_graph(instanced.graph)
        produced = sorted(t.value for tokens in result.outputs.values() for t in tokens)
        assert produced == [1, 1, 1, 2, 2]

    def test_precomputed_graphs_are_reused(self):
        program = sum_reduction()
        graphs = program_to_graphs(program)
        instanced = instantiate_round(program, values_multiset([1, 2]), graphs=graphs)
        assert instanced.num_instances == 1


class TestExecutionViaDataflow:
    @pytest.mark.parametrize(
        "builder,values,expected",
        [
            (min_element, [7, 3, 9, 1, 4], [1]),
            (sum_reduction, list(range(1, 21)), [210]),
            (remove_duplicates, [1, 1, 2, 2, 3], [1, 2, 3]),
            (gcd_program, [12, 18, 30], [6]),
        ],
    )
    def test_matches_native_execution(self, builder, values, expected):
        program = builder()
        initial = values_multiset(values)
        emulated = execute_via_dataflow(program, initial, seed=1)
        assert sorted(emulated.final.values_with_label("x")) == expected
        native = run(program, initial, config=RuntimeConfig(engine="sequential"))
        assert emulated.final == native.final

    def test_sieve_via_dataflow(self):
        emulated = execute_via_dataflow(prime_sieve(), values_multiset(range(2, 30)), seed=0)
        assert sorted(emulated.final.values_with_label("x")) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_rounds_and_instances_are_reported(self):
        emulated = execute_via_dataflow(sum_reduction(), values_multiset(range(1, 17)), seed=2)
        assert emulated.total_instances == 15  # n-1 pairwise sums
        assert emulated.rounds >= 4  # at best a binary-tree of rounds

    def test_converted_loop_program_runs_via_dataflow(self):
        """Full circle: Fig. 2 graph → Algorithm 1 → reactions → Algorithm 2 +
        instancing → same loop result."""
        conversion = dataflow_to_gamma(example2_graph(y=3, z=4, x=1))
        emulated = execute_via_dataflow(conversion.program, conversion.initial, seed=3)
        assert emulated.final.restrict_labels(["Cout"]).values_with_label("Cout") == [
            example2_expected_result(y=3, z=4, x=1)
        ]

    def test_copy_heavy_emulation_fires_like_the_parallel_engine(self):
        initial = values_multiset([v for v in range(1, 9) for _ in range(25)])
        emulated = execute_via_dataflow(min_element(), initial)
        native = run(min_element(), initial, config=RuntimeConfig(engine="sequential"))
        executed = ParallelEngine().run(min_element(), initial)
        assert emulated.final == native.final == executed.final
        assert emulated.total_instances == executed.firings == 175
        assert emulated.rounds == executed.steps

    def test_keep_graphs_records_rounds(self):
        emulated = execute_via_dataflow(
            sum_reduction(), values_multiset([1, 2, 3, 4]), seed=0, keep_graphs=True
        )
        assert len(emulated.round_graphs) == emulated.rounds

    def test_missing_initial_rejected(self):
        with pytest.raises(ValueError):
            execute_via_dataflow(sum_reduction(), None)

    def test_equivalence_checker_wrapper(self):
        report = check_gamma_vs_dataflow(min_element(), values_multiset([4, 9, 2]), seeds=(0, 1))
        assert report.passed, report.summary()


def _pairing_program():
    """A variable-label reaction: two same-label, same-tag elements become
    one ``x`` element at the next tag.  Its candidate pools span every
    label, so label key order is an input of every (seeded) decision."""
    pairing = Reaction(
        "Rpair",
        [
            pattern("a", "lbl", "t", label_is_variable=True),
            pattern("b", "lbl", "t", label_is_variable=True),
        ],
        [Branch(productions=[template(var("a") + var("b"), "x", var("t") + 1)])],
    )
    return GammaProgram([pairing], name="pairing")


_PAIRING_INITIAL = [
    (1, "x", 0), (10, "y", 1), (2, "x", 1), (3, "x", 0),
    (20, "y", 0), (30, "y", 0), (4, "x", 1), (5, "x", 1),
]


class TestLabelOrderUnderReattach:
    """Instancing attaches a fresh scheduler each round to an evolving
    multiset.  The scheduler's index views the multiset's own label order,
    so ``execute_via_dataflow`` hands each round a multiset in from-scratch
    order; the decisions below are pinned by value."""

    def test_round_one_reorders_labels(self):
        # The precondition the pins rely on: rewriting round one in place
        # leaves ``x`` ahead of ``y``, while a rebuild starts at ``y``.
        multiset = Multiset(_PAIRING_INITIAL)
        multiset.replace(
            [Element(1, "x", 0), Element(3, "x", 0), Element(20, "y", 0),
             Element(30, "y", 0), Element(2, "x", 1), Element(4, "x", 1)],
            [Element(4, "x", 1), Element(50, "x", 1), Element(6, "x", 2)],
        )
        assert multiset.labels() == ["x", "y"]
        assert multiset.copy().labels() == ["y", "x"]

    @pytest.mark.parametrize(
        "seed, rounds",
        [
            (None, [[(1, 3), (2, 4), (20, 30)], [(5, 4)], [(6, 9)]]),
            (0, [[(5, 2), (3, 1), (30, 20)], [(50, 4)], [(7, 54)]]),
            (1, [[(4, 2), (20, 30), (1, 3)], [(4, 50)], [(6, 54)]]),
            (2, [[(4, 5), (3, 1), (20, 30)], [(2, 4)], [(9, 6)]]),
            (3, [[(1, 3), (30, 20), (2, 5)], [(50, 4)], [(7, 54)]]),
        ],
    )
    def test_fig4_instancing_decisions(self, seed, rounds):
        emulated = execute_via_dataflow(
            _pairing_program(), Multiset(_PAIRING_INITIAL), seed=seed, keep_graphs=True
        )
        assert [
            [tuple(e.value for e in info.match.consumed) for info in graph.instances]
            for graph in emulated.round_graphs
        ] == rounds

    @pytest.mark.parametrize(
        "seed, steps",
        [
            (0, [[(5, 2), (3, 1), (30, 20)], [(4, 4)], [(8, 7)]]),
            (1, [[(4, 2), (20, 30), (1, 3)], [(50, 5)], [(55, 6)]]),
            (2, [[(4, 5), (3, 1), (20, 30)], [(2, 4)], [(9, 6)]]),
            (3, [[(1, 3), (30, 20), (2, 5)], [(4, 4)], [(7, 8)]]),
        ],
    )
    @pytest.mark.parametrize("compiled", [True, False])
    def test_seeded_parallel_engine_decisions(self, seed, steps, compiled):
        # One scheduler for the whole run: its index follows the live
        # multiset's history from the initial copy on.
        result = ParallelEngine(seed=seed, compiled=compiled).run(
            _pairing_program(), Multiset(_PAIRING_INITIAL)
        )
        assert [
            [tuple(e.value for e in firing.consumed) for firing in step.firings]
            for step in result.trace.steps
        ] == steps
