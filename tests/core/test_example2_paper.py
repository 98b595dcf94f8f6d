"""Experiment E2: the paper's Example 2 (Fig. 2), reproduced end to end.

Checks the structural claims (nine reactions R11–R19, the triple element form,
the inctag/steer/comparison translation idioms, the initial multiset
{[y,A1,0],[z,B1,0],[x,C1,0]}) and the behavioural equivalence over a sweep of
loop bounds and initial values.
"""

import pytest

from repro.core import check_dataflow_vs_gamma, dataflow_to_gamma
from repro.dataflow import run_graph
from repro.gamma import run
from repro.gamma.expr import BinOp, BoolOp, Compare, Const, Var
from repro.workloads.paper_examples import (
    EXAMPLE2_DEFAULTS,
    example2_expected_result,
    example2_graph,
)
from repro.api import RuntimeConfig


class TestConversionStructure:
    def setup_method(self):
        self.graph = example2_graph()
        self.conversion = dataflow_to_gamma(self.graph)
        self.program = self.conversion.program

    def test_nine_reactions_like_the_paper(self):
        assert len(self.program) == 9
        assert self.program.reaction_names() == [f"R{i}" for i in range(11, 20)]

    def test_initial_multiset_matches_paper(self):
        assert self.conversion.initial.to_tuples() == [
            (EXAMPLE2_DEFAULTS["y"], "A1", 0),
            (EXAMPLE2_DEFAULTS["z"], "B1", 0),
            (EXAMPLE2_DEFAULTS["x"], "C1", 0),
        ]

    def test_inctag_reactions_use_label_discrimination(self):
        """R11–R13 bind the consumed label and guard on (x=='A1') or (x=='A11')."""
        for name, labels in (("R11", {"A1", "A11"}), ("R12", {"B1", "B11"}), ("R13", {"C1", "C11"})):
            reaction = self.program[name]
            assert reaction.arity == 1
            assert reaction.has_variable_label()
            guard = reaction.guard
            assert isinstance(guard, BoolOp) and guard.op == "or"
            mentioned = {
                expr.right.value
                for expr in (guard.left, guard.right)
                if isinstance(expr, Compare) and isinstance(expr.right, Const)
            }
            assert mentioned == labels

    def test_inctag_reactions_increment_the_tag(self):
        reaction = self.program["R11"]
        template = reaction.branches[0].productions[0]
        assert isinstance(template.tag, BinOp) and template.tag.op == "+"
        assert template.tag.right == Const(1)

    def test_r12_produces_both_b12_and_b13(self):
        assert self.program["R12"].produced_labels() == frozenset({"B12", "B13"})

    def test_comparison_reaction_produces_all_three_controls(self):
        r14 = self.program["R14"]
        assert r14.consumed_labels() == frozenset({"B12"})
        assert r14.produced_labels() == frozenset({"B14", "B15", "B16"})
        true_branch, else_branch = r14.branches
        assert all(t.value == Const(1) for t in true_branch.productions)
        assert all(t.value == Const(0) for t in else_branch.productions)
        assert isinstance(true_branch.condition, Compare) and true_branch.condition.op == ">"

    def test_steer_reactions_have_if_else_shape(self):
        for name, consumed in (("R15", {"A12", "B14"}), ("R16", {"B13", "B15"}), ("R17", {"C12", "B16"})):
            reaction = self.program[name]
            assert reaction.consumed_labels() == frozenset(consumed)
            assert len(reaction.branches) == 2
            condition = reaction.branches[0].condition
            assert isinstance(condition, Compare) and condition.op == "=="

    def test_r16_false_branch_is_by_zero(self):
        """Steer B's false port has no consumer: the else arm produces nothing."""
        assert self.program["R16"].branches[1].productions == ()

    def test_r18_decrements_counter(self):
        r18 = self.program["R18"]
        assert r18.consumed_labels() == frozenset({"B17"})
        assert r18.produced_labels() == frozenset({"B11"})
        value = r18.branches[0].productions[0].value
        assert isinstance(value, BinOp) and value.op == "-" and value.right == Const(1)

    def test_r19_accumulates(self):
        r19 = self.program["R19"]
        assert r19.consumed_labels() == frozenset({"A13", "C13"})
        assert r19.produced_labels() == frozenset({"C11"})
        assert r19.branches[0].productions[0].value.op == "+"


class TestBehaviouralEquivalence:
    def test_paper_defaults(self):
        graph = example2_graph()
        expected = example2_expected_result()
        assert run_graph(graph).single_output("Cout") == expected
        conversion = dataflow_to_gamma(graph)
        result = run(conversion.program, config=RuntimeConfig(engine="chaotic", seed=9))
        assert result.final.values_with_label("Cout") == [expected]

    @pytest.mark.parametrize("y,z,x", [(2, 3, 10), (1, 1, 0), (5, 0, 7), (3, 8, -4), (0, 6, 2)])
    def test_sweep_all_engines(self, y, z, x, engine_name):
        graph = example2_graph(y, z, x)
        conversion = dataflow_to_gamma(graph)
        result = run(conversion.program, config=RuntimeConfig(engine=engine_name, seed=1))
        assert result.final.restrict_labels(["Cout"]).to_tuples() == [
            (example2_expected_result(y, z, x), "Cout", z + 1 if z > 0 else 1)
        ]

    def test_equivalence_report(self):
        report = check_dataflow_vs_gamma(example2_graph(), seeds=(0, 1, 2))
        assert report.passed, report.summary()
        assert len(report.outcomes) == 7  # sequential + 3 chaotic + 3 parallel

    def test_zero_trip_loop(self):
        graph = example2_graph(y=5, z=0, x=42)
        assert run_graph(graph).single_output("Cout") == 42
        assert check_dataflow_vs_gamma(graph, seeds=(0,)).passed

    def test_firing_counts_scale_with_iterations(self):
        """Each loop iteration fires the 9 converted reactions a fixed number of times."""
        conversion_small = dataflow_to_gamma(example2_graph(y=1, z=2, x=0))
        conversion_large = dataflow_to_gamma(example2_graph(y=1, z=6, x=0))
        small = run(conversion_small.program, config=RuntimeConfig(engine="sequential")).firings
        large = run(conversion_large.program, config=RuntimeConfig(engine="sequential")).firings
        # 4 extra iterations, each costing a fixed number of reaction firings.
        assert (large - small) % 4 == 0
        assert large > small

    def test_paper_faithful_variant_without_exit_edge(self):
        """With observe_exit=False the conversion reproduces the paper's
        9-reaction listing exactly: everything is erased at loop exit."""
        graph = example2_graph(observe_exit=False)
        conversion = dataflow_to_gamma(graph)
        r17 = conversion.program["R17"]
        assert r17.branches[1].productions == ()  # by 0 else
        result = run(conversion.program, config=RuntimeConfig(engine="chaotic", seed=0))
        assert len(result.final) == 0
