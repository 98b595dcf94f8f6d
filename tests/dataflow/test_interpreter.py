"""Tests for the tagged-token matching store and the firing-rule interpreter."""

import pytest

from repro.dataflow import (
    DataflowDeadlockError,
    DataflowGraph,
    DataflowInterpreter,
    GraphBuilder,
    IncTagNode,
    RootNode,
    Token,
    TokenStore,
    run_graph,
)
from repro.gamma import NonTerminationError
from repro.runtime import DataflowSimulator
from repro.workloads.paper_examples import (
    example1_expected_result,
    example1_graph,
    example2_expected_result,
    example2_graph,
)


class TestTokenStore:
    def make_graph(self):
        b = GraphBuilder("t")
        x = b.root(1, "x", node_id="x")
        y = b.root(2, "y", node_id="y")
        b.add(x, y, node_id="add")
        return b.build()

    def test_partial_operands_not_ready(self):
        g = self.make_graph()
        store = TokenStore(g)
        store.deposit("add", "a", Token(1, 0))
        assert not store.has_ready()
        store.deposit("add", "b", Token(2, 0))
        assert store.is_ready("add", 0)

    def test_tag_mismatch_not_ready(self):
        g = self.make_graph()
        store = TokenStore(g)
        store.deposit("add", "a", Token(1, 0))
        store.deposit("add", "b", Token(2, 1))
        assert not store.has_ready()
        assert store.pending_tokens() == 2
        assert store.waiting_tags("add") == [0, 1]

    def test_consume_returns_operands(self):
        g = self.make_graph()
        store = TokenStore(g)
        store.deposit("add", "a", Token(1, 0))
        store.deposit("add", "b", Token(2, 0))
        assert store.consume("add", 0) == {"a": 1, "b": 2}
        assert not store.has_ready()
        assert store.pending_tokens() == 0

    def test_consume_unready_raises(self):
        store = TokenStore(self.make_graph())
        with pytest.raises(KeyError):
            store.consume("add", 0)

    def test_queued_tokens_on_same_port(self):
        g = self.make_graph()
        store = TokenStore(g)
        store.deposit("add", "a", Token(1, 0))
        store.deposit("add", "a", Token(5, 0))
        store.deposit("add", "b", Token(2, 0))
        assert store.consume("add", 0) == {"a": 1, "b": 2}
        # The queued second token is still waiting for a matching b.
        assert store.pending_tokens() == 1

    def test_unknown_port_rejected(self):
        store = TokenStore(self.make_graph())
        with pytest.raises(ValueError):
            store.deposit("add", "zzz", Token(1, 0))


class TestInterpreter:
    def test_example1_result(self):
        result = run_graph(example1_graph())
        assert result.single_output("m") == example1_expected_result()
        # 4 roots + 3 operations.
        assert result.total_firings == 7

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
    def test_firing_order_does_not_change_results(self, policy):
        result = run_graph(example2_graph(), policy=policy, seed=123)
        assert result.single_output("Cout") == example2_expected_result()

    @pytest.mark.parametrize("y,z,x", [(2, 3, 10), (5, 0, 7), (1, 10, 0), (3, 7, -2)])
    def test_example2_parameter_sweep(self, y, z, x):
        result = run_graph(example2_graph(y, z, x))
        assert result.single_output("Cout") == example2_expected_result(y, z, x)

    def test_root_values_override(self):
        g = example1_graph()
        result = run_graph(g, root_values={"x": 10, "y": 20, "k": 1, "j": 1})
        assert result.single_output("m") == 29

    def test_root_values_unknown_root_rejected(self):
        with pytest.raises(ValueError):
            run_graph(example1_graph(), root_values={"zzz": 1})

    def test_firing_events_recorded(self):
        result = run_graph(example1_graph())
        kinds = [f.kind for f in result.firings]
        assert kinds.count("root") == 4
        assert kinds.count("arith") == 3
        # Reuse signatures ignore tags.
        stats = result.reuse_statistics()
        assert stats["total"] == 7

    def test_single_output_requires_exactly_one_token(self):
        result = run_graph(example1_graph())
        with pytest.raises(ValueError):
            result.single_output("nonexistent")

    def test_outputs_as_multiset(self):
        result = run_graph(example1_graph())
        ms = result.outputs_as_multiset()
        assert ms.to_tuples() == [(example1_expected_result(), "m", 0)]

    def test_interpreter_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            DataflowInterpreter(example1_graph(), policy="zigzag")

    def test_loop_iteration_tags_increase(self):
        result = run_graph(example2_graph(y=1, z=4, x=0))
        token = result.outputs["Cout"][0]
        # Exit token is produced at tag z+1 (one inctag per iteration plus the exit check).
        assert token.tag == 5

    def test_firing_counts_per_node(self):
        result = run_graph(example2_graph(y=1, z=3, x=0))
        counts = result.firing_counts()
        # The comparison runs once per iteration plus the exit check.
        assert counts["R14"] == 4
        # The loop body adder runs once per iteration.
        assert counts["R19"] == 3


class TestBudgets:
    """Firing and step budgets must be positive; a budget one short of the
    run's needs raises, the exact need passes."""

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_firing_budget_is_refused(self, budget):
        with pytest.raises(ValueError, match="max_firings must be positive"):
            DataflowInterpreter(example1_graph(), max_firings=budget)
        with pytest.raises(ValueError, match="max_firings must be positive"):
            run_graph(example1_graph(), max_firings=budget)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_firing_budget_is_exact(self, compiled):
        graph = example2_graph()
        needed = run_graph(graph).total_firings
        with pytest.raises(DataflowDeadlockError, match=f"exceeded {needed - 1} firings"):
            run_graph(graph, max_firings=needed - 1, compiled=compiled)
        result = run_graph(graph, max_firings=needed, compiled=compiled)
        assert result.total_firings == needed
        assert result.single_output("Cout") == example2_expected_result()

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_step_budget_is_refused(self, budget):
        with pytest.raises(ValueError, match="max_steps must be positive"):
            DataflowSimulator(example1_graph(), max_steps=budget)

    def test_step_budget_is_exact(self):
        graph = example2_graph()
        steps = DataflowSimulator(graph, seed=1).run().steps
        with pytest.raises(NonTerminationError):
            DataflowSimulator(graph, seed=1, max_steps=steps - 1).run()
        assert DataflowSimulator(graph, seed=1, max_steps=steps).run().steps == steps

    def test_deadlock_error_is_exported(self):
        import repro.dataflow

        assert "DataflowDeadlockError" in repro.dataflow.__all__
        assert issubclass(DataflowDeadlockError, RuntimeError)


class TestTagValidation:
    def test_negative_tag_delta_raises_like_a_token(self):
        """Internal deposits skip building a Token only while every tag delta
        is a non-negative int; a graph with a negative delta is checked."""
        graph = DataflowGraph("down")
        graph.add_node(RootNode("r", value=1))
        graph.add_node(IncTagNode("dec", delta=-1))
        graph.add_node(IncTagNode("inc"))
        graph.add_edge("r", "dec", "A")
        graph.add_edge("dec", "inc", "B")
        graph.add_edge("inc", None, "out")
        for compiled in (True, False):
            with pytest.raises(ValueError, match="token tag must be non-negative"):
                run_graph(graph, compiled=compiled)
            with pytest.raises(ValueError, match="token tag must be non-negative"):
                DataflowSimulator(graph, compiled=compiled).run()
