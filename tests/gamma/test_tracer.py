"""Unit tests for execution traces."""

import gc
import hashlib

import pytest

from repro.analysis.reaction_graph import flow_weights, hot_label_report
from repro.core import dataflow_to_gamma
from repro.gamma import ChaoticEngine, ColumnarKernel, ParallelEngine, SequentialEngine, run
from repro.gamma.expr import BinOp, EvaluationError, var
from repro.gamma.pattern import pattern, template
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.scheduler import ReactionScheduler
from repro.gamma.stdlib import min_element, sum_reduction, values_multiset
from repro.gamma.tracer import FiringRecord, StepRecord, Trace
from repro.multiset import Element
from repro.api import RuntimeConfig
from repro.workloads import triangular


def _raising_drain(columnar: bool) -> Trace:
    """Drain ``a/b`` over {8, 2, 0, 0}: 8/2 fires, then 0/0 raises inside
    the second step's production, leaving that step empty."""
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
    return trace


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
        trace = _raising_drain(columnar)
        eight, two = Element(8, "x", 0), Element(2, "x", 0)
        assert trace.steps == [
            StepRecord(0, [
                FiringRecord(0, "Rdiv", (eight, two), (Element(4, "x", 0),), {"a": 8, "b": 2, "v": 0}),
            ]),
            StepRecord(1, []),
        ]


class TestColumnarLog:
    """Recording appends to columns, so a firing leaves no object of its own
    for the cyclic garbage collector to track."""

    def test_record_keeps_no_collector_tracked_objects(self):
        a, b, c = Element(1, "a", 0), Element(2, "b", 0), Element(3, "c", 1)
        consumed, produced, binding = [a, b], (c,), {"x": 1, "y": 2}
        trace = Trace()
        trace.record(trace.begin_step(), "R", consumed, produced, binding)
        gc.disable()
        try:
            before = len(gc.get_objects())
            for i in range(10_000):
                step = trace.begin_step()
                trace.record(step, "R", consumed, produced, binding, times=1 + i % 3)
                trace.record(step, "S", (c,), [], None)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        # A tuple-per-firing log keeps 3 tracked objects per record (6e4 here).
        assert grown < 16
        assert trace.num_firings == 1 + sum(1 + i % 3 for i in range(10_000)) + 10_000
        last = trace.firings()[-2:]
        assert last[0].consumed == (a, b) and last[0].produced[0] is c
        assert last[1].consumed[0] is c and last[1].produced == () and last[1].binding == {}


def _typed(value):
    return (type(value).__name__, repr(value))


def _element(element: Element):
    return (_typed(element.value), element.label, _typed(element.tag))


def _trace_canonical(trace: Trace):
    """Every step (empty ones included), every record and every aggregate."""
    steps = tuple(
        (
            step.step,
            step.width,
            tuple(
                (
                    f.step,
                    f.reaction,
                    tuple(_element(e) for e in f.consumed),
                    tuple(_element(e) for e in f.produced),
                    tuple((name, _typed(value)) for name, value in f.binding.items()),
                    f.times,
                )
                for f in step.firings
            ),
        )
        for step in trace.steps
    )
    return (
        steps,
        trace.num_steps,
        trace.num_firings,
        tuple(trace.parallelism_profile()),
        tuple(trace.firing_counts().items()),
        tuple(trace.reuse_statistics().items()),
    )


_VALUES = [17, 4, 4.0, 23, 9, 31, 2, 12, 12.0, 40, 7, 28, 15, 6.0, 33, 6]


def _triangular():
    conversion = dataflow_to_gamma(triangular(50).graph())
    return conversion.program, conversion.initial


TRACE_CASES = {
    "min_element/sequential": lambda: SequentialEngine().run(
        min_element(), values_multiset(_VALUES)
    ).trace,
    "min_element/chaotic": lambda: ChaoticEngine(seed=11).run(
        min_element(), values_multiset(_VALUES)
    ).trace,
    "min_element/parallel": lambda: ParallelEngine(seed=11).run(
        min_element(), values_multiset([1] * 8 + [2] * 8 + _VALUES)
    ).trace,
    "triangular/sequential": lambda: SequentialEngine().run(*_triangular()).trace,
    "triangular/chaotic": lambda: ChaoticEngine(seed=11).run(*_triangular()).trace,
    "triangular/parallel": lambda: ParallelEngine(seed=11).run(*_triangular()).trace,
    "min_element/columnar": lambda: SequentialEngine(columnar=True).run(
        min_element(), values_multiset(range(40, 0, -1))
    ).trace,
    "sum_reduction/columnar": lambda: SequentialEngine(columnar=True).run(
        sum_reduction(), values_multiset(range(1, 30))
    ).trace,
    "raising/sequential": lambda: _raising_drain(columnar=False),
    "raising/columnar": lambda: _raising_drain(columnar=True),
}

# case -> SHA-256 prefix of the trace's canonical form, recorded with the
# tuple-per-firing log that the columnar one replaced.
TRACE_DIGESTS = {
    "min_element/chaotic": "e34f5c47d06d3e60",
    "min_element/columnar": "0489f1488764329d",
    "min_element/parallel": "da2cc35426d97daf",
    "min_element/sequential": "c58abba66d997b38",
    "raising/columnar": "92e97793ae2a2171",
    "raising/sequential": "92e97793ae2a2171",
    "sum_reduction/columnar": "1e4e2a7b6e6cdec8",
    "triangular/chaotic": "5b0e67b191428ddc",
    "triangular/parallel": "e2983cef2f16a292",
    "triangular/sequential": "59a75e61ec3ff755",
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_views_are_pinned(case):
    canonical = _trace_canonical(TRACE_CASES[case]())
    assert hashlib.sha256(repr(canonical).encode()).hexdigest()[:16] == TRACE_DIGESTS[case]


def test_pinned_columnar_cases_run_the_kernel():
    for program in (min_element(), sum_reduction()):
        scheduler = ReactionScheduler(program.reactions, values_multiset([1, 2]), columnar=True)
        try:
            assert ColumnarKernel.build(scheduler) is not None
        finally:
            scheduler.detach()
    parallel = TRACE_CASES["min_element/parallel"]()
    assert max(f.times for f in parallel.firings()) > 1


if __name__ == "__main__":
    for _case in sorted(TRACE_CASES):
        _canonical = _trace_canonical(TRACE_CASES[_case]())
        print(f"    {_case!r}: {hashlib.sha256(repr(_canonical).encode()).hexdigest()[:16]!r},")
