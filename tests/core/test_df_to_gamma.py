"""Unit tests for Algorithm 1 beyond the two paper examples."""

import pytest

from repro.core import ConversionError, check_dataflow_vs_gamma, dataflow_to_gamma
from repro.dataflow import DataflowGraph, GraphBuilder
from repro.dataflow.nodes import ArithmeticNode, RootNode
from repro.gamma import run
from repro.workloads.expressions import ExpressionSpec, random_expression_graph
from repro.workloads.loops import LOOP_KERNELS
from repro.api import RuntimeConfig


class TestStructuralRules:
    def test_fan_out_produces_one_element_per_edge(self):
        b = GraphBuilder("fanout")
        x = b.root(3, "x", node_id="x")
        y = b.root(4, "y", node_id="y")
        s = b.add(x, y, node_id="add")
        b.output(b.mul(s, s, node_id="mul"), "sq")
        graph = b.build()
        conversion = dataflow_to_gamma(graph)
        add = conversion.program["add"]
        # The add vertex fans out to both inputs of the multiply: two productions.
        assert len(add.branches[0].productions) == 2
        result = run(conversion.program, config=RuntimeConfig(engine="sequential"))
        assert result.final.values_with_label("sq") == [49]

    def test_root_with_fanout_creates_multiple_initial_elements(self):
        b = GraphBuilder("rootfan")
        x = b.root(5, "x", node_id="x")
        y = b.root(2, "y", node_id="y")
        b.output(b.add(x, y, node_id="a1"), "o1")
        b.output(b.mul(x, y, node_id="a2"), "o2")
        conversion = dataflow_to_gamma(b.build())
        # x and y each feed two consumers: 4 initial elements.
        assert len(conversion.initial) == 4
        result = run(conversion.program, config=RuntimeConfig(engine="chaotic", seed=0))
        assert result.final.values_with_label("o1") == [7]
        assert result.final.values_with_label("o2") == [10]

    def test_immediate_operands_become_constants(self):
        b = GraphBuilder("imm")
        x = b.root(9, "x", node_id="x")
        b.output(b.arith_imm("-", x, 1, node_id="dec"), "r")
        conversion = dataflow_to_gamma(b.build())
        reaction = conversion.program["dec"]
        assert reaction.arity == 1
        result = run(conversion.program, config=RuntimeConfig(engine="sequential"))
        assert result.final.values_with_label("r") == [8]

    def test_comparison_node_yields_two_branches(self):
        b = GraphBuilder("cmp")
        x = b.root(3, "x", node_id="x")
        y = b.root(8, "y", node_id="y")
        b.output(b.compare("<", x, y, node_id="lt"), "r")
        conversion = dataflow_to_gamma(b.build())
        reaction = conversion.program["lt"]
        assert len(reaction.branches) == 2
        result = run(conversion.program, config=RuntimeConfig(engine="sequential"))
        assert result.final.values_with_label("r") == [1]

    def test_node_without_consumers_produces_nothing(self):
        b = GraphBuilder("sink")
        x = b.root(1, "x", node_id="x")
        b.arith_imm("+", x, 1, node_id="dead")
        conversion = dataflow_to_gamma(b.build())
        result = run(conversion.program, config=RuntimeConfig(engine="sequential"))
        assert len(result.final) == 0

    def test_root_value_override(self):
        from repro.workloads.paper_examples import example1_graph

        conversion = dataflow_to_gamma(example1_graph(), root_values={"x": 10})
        assert (10, "A1", 0) in [e.as_tuple() for e in conversion.initial]

    def test_unknown_root_override_rejected(self):
        from repro.workloads.paper_examples import example1_graph

        with pytest.raises(ConversionError):
            dataflow_to_gamma(example1_graph(), root_values={"nope": 1})

    def test_graph_with_only_roots_rejected(self):
        g = DataflowGraph()
        g.add_node(RootNode("x", value=1))
        with pytest.raises(ConversionError):
            dataflow_to_gamma(g)

    def test_unconnected_input_port_rejected(self):
        g = DataflowGraph()
        g.add_node(RootNode("x", value=1))
        g.add_node(ArithmeticNode("op", op="+"))
        g.add_edge("x", "op", "L", dst_port="a")
        with pytest.raises(ConversionError):
            dataflow_to_gamma(g)

    def test_reaction_for_lookup(self):
        from repro.workloads.paper_examples import example1_graph

        conversion = dataflow_to_gamma(example1_graph())
        assert conversion.reaction_for("R1").name == "R1"


class TestEquivalenceOnGeneratedWorkloads:
    @pytest.mark.parametrize("size", [2, 6, 12, 20])
    def test_random_expressions(self, size):
        graph = random_expression_graph(ExpressionSpec(num_inputs=4, num_operations=size, seed=size))
        report = check_dataflow_vs_gamma(graph, seeds=(0,), engines=("sequential", "chaotic"))
        assert report.passed, report.summary()

    @pytest.mark.parametrize("kernel_name", sorted(LOOP_KERNELS))
    def test_loop_kernels(self, kernel_name):
        kernel = LOOP_KERNELS[kernel_name]()
        graph = kernel.graph()
        report = check_dataflow_vs_gamma(graph, seeds=(0,), engines=("sequential", "chaotic"))
        assert report.passed, f"{kernel_name}: {report.summary()}"

    def test_multiple_outputs(self):
        graph = random_expression_graph(
            ExpressionSpec(num_inputs=3, num_operations=10, num_outputs=3, seed=7)
        )
        report = check_dataflow_vs_gamma(graph, seeds=(0,), engines=("parallel",))
        assert report.passed
