"""Property-based determinism tests for the parallel superstep backend.

The *differential* contract — :class:`ParallelEngine` reaches exactly the
sequential compiled engine's stable multiset for any workload, generated
program, seed, worker count, or batch cap — is pinned by the cross-backend
conformance fuzz suite (``test_conformance_fuzz.py``).  This module keeps
the property the fuzz suite cannot express by comparing final states alone:

* **determinism** — a seeded superstep trace is a pure function of the seed
  and batch cap;
* **one superstep notion** — the PE-bounded counting model
  (:class:`GammaSimulator` with ``num_pes = max_batch``) steps through the
  very schedule the executing engine fires, width for width.
"""

from hypothesis import given, settings, strategies as st

from repro.gamma import ParallelEngine
from repro.runtime import GammaSimulator
from repro.workloads import make_workload

#: Confluent classics: every valid schedule reaches the same stable multiset.
WORKLOADS = (
    "min_element",
    "max_element",
    "sum_reduction",
    "gcd",
    "prime_sieve",
    "exchange_sort",
    "remove_duplicates",
)


def _trace_key(result):
    return [
        (f.step, f.reaction, f.consumed, f.produced, f.binding, f.times)
        for f in result.trace.firings()
    ]


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(WORKLOADS),
    size=st.integers(min_value=2, max_value=20),
    engine_seed=st.integers(min_value=0, max_value=999),
    max_batch=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
)
def test_seeded_superstep_trace_is_a_function_of_seed_and_budget(
    name, size, engine_seed, max_batch
):
    workload = make_workload(name, size=size, seed=1)
    first, second = (
        ParallelEngine(seed=engine_seed, max_batch=max_batch).run(
            workload.program, workload.initial
        )
        for _ in range(2)
    )
    assert (_trace_key(first), first.final) == (_trace_key(second), second.final)
    simulated = GammaSimulator(
        workload.program, num_pes=max_batch, seed=engine_seed
    ).run(workload.initial)
    assert simulated.metrics.profile == first.parallelism_profile()
    assert simulated.total_firings == first.firings
    assert simulated.final == first.final
