"""Tests for the compiled dataflow node kernels and emit plans."""

import pytest

from repro.dataflow import (
    ArithmeticNode,
    ComparisonNode,
    CompiledGraphOps,
    CopyNode,
    DataflowGraph,
    IncTagNode,
    RootNode,
    SteerNode,
    TokenStore,
    compile_node,
    run_graph,
)
from repro.dataflow.nodes import Node
from repro.workloads import (
    EXAMPLE1_DEFAULTS,
    EXAMPLE2_DEFAULTS,
    example1_graph,
    example2_graph,
)


class TestKernels:
    @pytest.mark.parametrize(
        "node,inputs,expected",
        [
            (ArithmeticNode("n", op="+"), {"a": 2, "b": 3}, {"out": 5}),
            (ArithmeticNode("n", op="-", immediate=("right", 1)), {"in": 7}, {"out": 6}),
            (ArithmeticNode("n", op="-", immediate=("left", 10)), {"in": 7}, {"out": 3}),
            (ArithmeticNode("n", op="/"), {"a": 7, "b": -2}, {"out": -3}),
            (ComparisonNode("n", op=">"), {"a": 2, "b": 3}, {"out": 0}),
            (ComparisonNode("n", op=">", immediate=("right", 0)), {"in": 4}, {"out": 1}),
            (SteerNode("n"), {"data": 9, "control": 1}, {"true": 9}),
            (SteerNode("n"), {"data": 9, "control": False}, {"false": 9}),
            (IncTagNode("n"), {"in": 5}, {"out": 5}),
            (CopyNode("n"), {"in": 5}, {"out": 5}),
            (RootNode("n", value=3), {}, {"out": 3}),
        ],
    )
    def test_kernel_equals_compute(self, node, inputs, expected):
        kernel = compile_node(node)
        assert kernel(inputs) == expected
        assert kernel(inputs) == node.compute(inputs)

    def test_steer_error_message_matches_compute(self):
        node = SteerNode("S1")
        kernel = compile_node(node)
        with pytest.raises(ValueError) as compiled_err:
            kernel({"data": 1, "control": 7})
        with pytest.raises(ValueError) as interpreted_err:
            node.compute({"data": 1, "control": 7})
        assert str(compiled_err.value) == str(interpreted_err.value)

    def test_unknown_node_kind_falls_back_to_compute(self):
        class Doubler(Node):
            @property
            def kind(self):
                return "doubler"

            def input_ports(self):
                return ("in",)

            def output_ports(self):
                return ("out",)

            def compute(self, inputs):
                return {"out": inputs["in"] * 2}

        node = Doubler("D1")
        kernel = compile_node(node)
        assert kernel == node.compute  # the bound method itself, not a wrapper
        assert kernel({"in": 4}) == {"out": 8}


class TestCompiledGraphOps:
    def test_emit_adjacency_matches_graph(self):
        graph = example2_graph()
        ops = CompiledGraphOps(graph)
        for node in graph.nodes:
            for port in node.output_ports():
                expected = [
                    (edge.dst, edge.label if edge.dst is None else edge.dst_port)
                    for edge in graph.out_edges(node.node_id, port)
                ]
                assert ops.routes[node.node_id].get(port, []) == expected

    def test_unrouted_port_drops_its_value(self):
        graph = DataflowGraph("g")
        graph.add_node(RootNode("r", value=1))
        ops = CompiledGraphOps(graph)
        assert ops.routes["r"] == {}
        store, outputs = TokenStore(graph), {}
        ops.sender(store, outputs)("r", {"out": 1, "nonexistent": 2}, 0)
        assert store.snapshot() == {} and outputs == {}

    def test_tag_deltas(self):
        graph = example2_graph()
        ops = CompiledGraphOps(graph)
        for node in graph.nodes:
            assert ops.tag_delta[node.node_id] == node.tag_delta()


class TestInterpreterEquivalence:
    @pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
    @pytest.mark.parametrize(
        "factory,defaults",
        [(example1_graph, EXAMPLE1_DEFAULTS), (example2_graph, EXAMPLE2_DEFAULTS)],
    )
    def test_compiled_run_identical_to_interpreted(self, policy, factory, defaults):
        graph = factory()
        compiled = run_graph(graph, policy=policy, seed=5, compiled=True)
        interpreted = run_graph(graph, policy=policy, seed=5, compiled=False)
        assert compiled.outputs == interpreted.outputs
        assert compiled.total_firings == interpreted.total_firings
        assert compiled.firings == interpreted.firings  # full event-by-event log

    def test_simulator_equivalence(self):
        from repro.runtime.df_simulator import DataflowSimulator

        graph = example2_graph()
        fast = DataflowSimulator(graph, num_pes=2, seed=3, compiled=True).run()
        base = DataflowSimulator(graph, num_pes=2, seed=3, compiled=False).run()
        assert fast.outputs == base.outputs
        assert fast.steps == base.steps
        assert fast.total_firings == base.total_firings
