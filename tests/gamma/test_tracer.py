"""Unit tests for execution traces."""

import pytest

from repro.analysis.reaction_graph import flow_weights, hot_label_report
from repro.gamma import ParallelEngine, SequentialEngine, run
from repro.gamma.expr import BinOp, EvaluationError, var
from repro.gamma.pattern import pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.scheduler import ReactionScheduler
from repro.gamma.stdlib import min_element, sum_reduction, values_multiset
from repro.gamma.tracer import FiringRecord, StepRecord, Trace
from repro.multiset import Element
from repro.api import RuntimeConfig


class TestTraceRecording:
    def test_firing_counts(self):
        result = run(sum_reduction(), values_multiset([1, 2, 3, 4]), config=RuntimeConfig(engine="sequential"))
        counts = result.trace.firing_counts()
        assert counts == {"Rsum": 3}
        assert result.trace.num_firings == 3

    def test_firings_of(self):
        result = run(sum_reduction(), values_multiset([1, 2, 3]), config=RuntimeConfig(engine="sequential"))
        assert len(result.trace.firings_of("Rsum")) == 2
        assert result.trace.firings_of("other") == []

    def test_steps_vs_firings_parallel(self):
        result = ParallelEngine(seed=0).run(sum_reduction(), values_multiset(range(1, 9)))
        assert result.trace.num_firings == 7
        assert result.trace.num_steps < 7

    def test_parallelism_profile_statistics(self):
        result = ParallelEngine(seed=0).run(sum_reduction(), values_multiset(range(1, 9)))
        profile = result.trace.parallelism_profile()
        assert profile == [4, 2, 1]
        assert result.trace.max_parallelism() == 4
        assert result.trace.average_parallelism() == 7 / 3

    def test_empty_trace(self):
        trace = Trace()
        assert trace.parallelism_profile() == []
        assert trace.max_parallelism() == 0
        assert trace.average_parallelism() == 0.0
        assert trace.reuse_statistics() == {"total": 0, "unique": 0, "reusable": 0}

    def test_reuse_statistics_ignore_tags(self):
        trace = Trace()
        from repro.multiset import Element

        step = trace.begin_step()
        trace.record(step, "R", [Element(1, "a", 0)], [Element(2, "b", 0)])
        step = trace.begin_step()
        trace.record(step, "R", [Element(1, "a", 5)], [Element(2, "b", 5)])
        stats = trace.reuse_statistics()
        assert stats["total"] == 2
        assert stats["unique"] == 1
        assert stats["reusable"] == 1


class TestFiringMultiplicity:
    """A record of multiplicity ``times`` counts as that many firings."""

    @staticmethod
    def trace():
        from repro.multiset import Element

        trace = Trace()
        step = trace.begin_step()
        trace.record(step, "R", [Element(1, "a", 0)], [Element(2, "b", 0)], times=5)
        trace.record(step, "S", [Element(3, "b", 0)], [Element(4, "c", 0)], times=3)
        step = trace.begin_step()
        trace.record(step, "R", [Element(1, "a", 7)], [Element(2, "b", 7)])
        trace.record(step, "R", [Element(1, "a", 8)], [Element(2, "b", 8)])
        return trace

    def test_times_defaults_to_one(self):
        assert [f.times for f in self.trace().firings()] == [5, 3, 1, 1]

    def test_width_and_profile_weight_by_times(self):
        trace = self.trace()
        assert [step.width for step in trace.steps] == [8, 2]
        assert trace.parallelism_profile() == [8, 2]
        assert trace.max_parallelism() == 8
        assert trace.num_steps == 2

    def test_num_firings_and_firing_counts_weight_by_times(self):
        trace = self.trace()
        assert trace.num_firings == 10
        assert trace.firing_counts() == {"R": 7, "S": 3}
        assert len(trace.firings()) == 4  # records, not firings

    def test_reuse_statistics_weight_by_times(self):
        # 10 firings over 2 distinct (reaction, values) signatures: all but
        # the first firing of each signature could have been replayed.
        assert self.trace().reuse_statistics() == {"total": 10, "unique": 2, "reusable": 8}

    def test_reaction_graph_readers_weight_by_times(self):
        trace = self.trace()
        assert hot_label_report(trace) == [("b", 3, 7), ("a", 7, 0), ("c", 0, 3)]
        assert flow_weights(trace) == {("R", "S"): 3}

    def test_parallel_engine_records_one_entry_per_match(self):
        initial = values_multiset([1] * 40 + [2] * 40)
        result = ParallelEngine().run(min_element(), initial)
        assert [(f.reaction, f.times) for f in result.trace.firings()] == [("Rmin", 40)]
        assert result.firings == result.trace.num_firings == 40
        assert result.parallelism_profile() == [40]
        assert result.trace.firing_counts() == {"Rmin": 40}


class TestLazyRecords:
    """Records built from the flat log on read equal the eagerly built ones."""

    A, B, C = Element(1, "a", 0), Element(2, "b", 0), Element(3, "c", 1)

    def test_materialized_records_equal_eager_ones(self):
        a, b, c = self.A, self.B, self.C
        binding = {"x": 1}
        trace = Trace()
        step = trace.begin_step()
        trace.record(step, "R", [a], [b], binding)
        trace.record(step, "S", (b,), [c], times=4)
        trace.begin_step()
        step = trace.begin_step()
        trace.record(step, "R", [c], [])
        eager = [
            StepRecord(0, [
                FiringRecord(0, "R", (a,), (b,), {"x": 1}),
                FiringRecord(0, "S", (b,), (c,), {}, times=4),
            ]),
            StepRecord(1, []),
            StepRecord(2, [FiringRecord(2, "R", (c,), (), {})]),
        ]
        assert trace.steps == eager
        assert trace.firings() == [f for s in eager for f in s.firings]
        assert trace.num_steps == 3 and trace.num_firings == 6
        assert trace.parallelism_profile() == [5, 1]
        assert trace.firings()[0].binding is not binding

    def test_steps_read_early_see_later_records(self):
        a, b, c = self.A, self.B, self.C
        trace = Trace()
        step = trace.begin_step()
        trace.record(step, "R", [a], [b])
        held = trace.steps[0]
        trace.record(step, "S", [b], [c])
        trace.record(trace.begin_step(), "R", [c], [a])
        assert [s.width for s in trace.steps] == [2, 1]
        assert trace.steps[0] is held and [f.reaction for f in held.firings] == ["R", "S"]
        assert [(f.step, f.reaction) for f in trace.firings()] == [(0, "R"), (0, "S"), (1, "R")]

    @pytest.mark.parametrize("columnar", [False, True])
    def test_raising_production_leaves_an_empty_step(self, columnar):
        # 8/2 fires; then 0/0 raises inside the second step's production.
        divide = Reaction(
            name="Rdiv",
            replace=[pattern("a", "x"), pattern("b", "x")],
            branches=[Branch(productions=[template(BinOp("/", var("a"), var("b")), "x")])],
        )
        multiset = values_multiset([8, 2, 0, 0])
        scheduler = ReactionScheduler([divide], multiset, columnar=columnar)
        trace = Trace()
        try:
            with pytest.raises(EvaluationError):
                SequentialEngine(columnar=columnar).drain(scheduler, multiset, trace, max_steps=10)
        finally:
            scheduler.detach()
        eight, two = Element(8, "x", 0), Element(2, "x", 0)
        assert trace.steps == [
            StepRecord(0, [
                FiringRecord(0, "Rdiv", (eight, two), (Element(4, "x", 0),), {"a": 8, "b": 2, "v": 0}),
            ]),
            StepRecord(1, []),
        ]
