"""Property-based tests for the incremental scheduling subsystem.

Two families of properties back the persistent-index refactor:

* an *attached* :class:`LabelTagIndex`, a view of the live multiset's
  buckets, must stay equal to a from-scratch rebuild after any
  sequence of ``add``/``remove``/``replace`` operations — including the bucket
  *ordering*, which the seeded schedulers depend on;
* all three engines must reach the same stable observables on the paper's
  confluent workloads across many seeds;
* inside real engine runs, the persistent scheduler must agree at every step
  with a from-scratch rebuild: its index equals a rebuilt one and every
  reaction it keeps parked has no match under a fresh interpreted matcher.
"""

from hypothesis import given, settings, strategies as st

import repro.gamma.engine as engine_module
from repro.gamma import (
    ChaoticEngine,
    ParallelEngine,
    SequentialEngine,
    run,
)
from repro.gamma.matching import Matcher
from repro.gamma.scheduler import ReactionScheduler
from repro.multiset import Element, LabelTagIndex, Multiset
from repro.workloads import make_workload

import pytest
from repro.api import RuntimeConfig

elements = st.builds(
    Element,
    value=st.integers(min_value=-9, max_value=9),
    label=st.sampled_from(["A", "B", "C"]),
    tag=st.integers(min_value=0, max_value=2),
)

# An operation is one of:
#   ("add", element)           insert one copy
#   ("remove", index)          remove one copy of some present element
#   ("replace", [elem...], k)  rewrite: remove k present elements, add the list
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), elements),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10 ** 6)),
        st.tuples(
            st.just("replace"),
            st.lists(elements, max_size=3),
            st.integers(min_value=0, max_value=3),
        ),
    ),
    max_size=60,
)


def _apply_ops(multiset, ops):
    """Interpret the op stream, skipping removals that would underflow."""
    for op in ops:
        if op[0] == "add":
            multiset.add(op[1])
        elif op[0] == "remove":
            present = multiset.distinct()
            if present:
                multiset.remove(present[op[1] % len(present)])
        else:
            _, added, k = op
            present = list(multiset)
            removed = present[: min(k, len(present))]
            multiset.replace(removed, added)


class TestIncrementalIndexEqualsRebuild:
    @given(initial=st.lists(elements, max_size=20), ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_attached_index_matches_from_scratch_rebuild(self, initial, ops):
        multiset = Multiset(initial)
        attached = LabelTagIndex().attach(multiset)
        _apply_ops(multiset, ops)
        rebuilt = LabelTagIndex(multiset)
        assert attached.as_dict() == rebuilt.as_dict()
        assert len(attached) == len(rebuilt) == len(multiset)
        attached.detach()

    @given(initial=st.lists(elements, max_size=20), ops=operations)
    @settings(max_examples=50, deadline=None)
    def test_attached_index_preserves_candidate_order(self, initial, ops):
        # Seeded schedulers shuffle candidate lists drawn from the index, so
        # incremental maintenance must reproduce the rebuild's bucket order
        # exactly, not just its contents.
        multiset = Multiset(initial)
        attached = LabelTagIndex().attach(multiset)
        _apply_ops(multiset, ops)
        rebuilt = LabelTagIndex(multiset)
        for label in ("A", "B", "C"):
            assert attached.candidates(label) == rebuilt.candidates(label)
            for tag in (0, 1, 2):
                assert attached.candidates(label, tag) == rebuilt.candidates(label, tag)
                assert list(attached.iter_candidates(label, tag)) == rebuilt.candidates(label, tag)
        attached.detach()

    @given(initial=st.lists(elements, max_size=15), ops=operations)
    @settings(max_examples=50, deadline=None)
    def test_detached_index_stops_tracking(self, initial, ops):
        multiset = Multiset(initial)
        attached = LabelTagIndex().attach(multiset)
        snapshot = attached.as_dict()
        attached.detach()
        _apply_ops(multiset, ops)
        assert attached.as_dict() == snapshot


WORKLOADS = ("min_element", "sum_reduction", "prime_sieve", "exchange_sort", "gcd")
SEEDS = (0, 1, 2, 3, 4, 5)


class TestCrossEngineObservableEquivalence:
    @pytest.mark.parametrize("workload_name", WORKLOADS)
    def test_all_engines_reach_same_stable_observables(self, workload_name):
        """All three engines agree on the stable multiset across >= 5 seeds."""
        workload = make_workload(workload_name, size=16, seed=11)
        finals = set()
        for seed in SEEDS:
            for engine in ("sequential", "chaotic", "parallel"):
                result = run(workload.program, workload.initial, config=RuntimeConfig(engine=engine, seed=seed))
                assert result.stable
                finals.add(result.final)
        assert len(finals) == 1, f"{workload_name}: schedulers disagree"
        (final,) = finals
        assert sorted(final.values_with_label(workload.label)) == workload.expected_sorted()


class AuditedScheduler(ReactionScheduler):
    """Scheduler that checks itself against a from-scratch rebuild on every refresh.

    After the worklist is re-armed, the attached index must equal (contents
    and candidate order) an index rebuilt from the multiset, and every
    reaction still parked must be dead under a fresh interpreted matcher —
    the rebuild-per-step discipline the incremental scheduler replaces.
    """

    audits = 0

    def refresh(self) -> None:
        super().refresh()
        rebuilt = LabelTagIndex(self.multiset)
        assert self.index.as_dict() == rebuilt.as_dict()
        for label, tags in rebuilt.as_dict().items():
            assert self.index.candidates(label) == rebuilt.candidates(label)
            for tag in tags:
                assert self.index.candidates(label, tag) == rebuilt.candidates(label, tag)
        reference = Matcher(self.multiset.copy())
        for i in self.parked:
            assert reference.find(self.reactions[i]) is None, self.reactions[i].name
        AuditedScheduler.audits += 1


def _trace_key(result):
    return [
        (f.step, f.reaction, f.consumed, f.produced, f.binding, f.times)
        for f in result.trace.firings()
    ]


class TestSchedulerAgreesWithRebuild:
    @pytest.mark.parametrize("workload_name", WORKLOADS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_step_matches_rebuild_reference(self, workload_name, seed, monkeypatch):
        """Index and parked set agree with a rebuild at every step of every engine.

        The audited run must also be bit-identical to the unaudited one, so
        the audit observes the schedule without perturbing it.
        """
        workload = make_workload(workload_name, size=14, seed=seed)
        engines = (
            lambda: SequentialEngine(),
            lambda: ChaoticEngine(seed=seed),
            lambda: ParallelEngine(seed=seed),
        )
        for make_engine in engines:
            plain = make_engine().run(workload.program, workload.initial)
            with monkeypatch.context() as patch:
                patch.setattr(engine_module, "ReactionScheduler", AuditedScheduler)
                before = AuditedScheduler.audits
                audited = make_engine().run(workload.program, workload.initial)
                assert AuditedScheduler.audits - before == audited.steps + 1
            assert _trace_key(audited) == _trace_key(plain)
            assert audited.final == plain.final
            assert sorted(audited.values_with_label(workload.label)) == workload.expected_sorted()
