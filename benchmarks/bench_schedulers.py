"""Experiment E7 — the Γ operator under different schedulers.

Eq. 1 leaves the choice of which enabled reaction fires entirely open; the
sequential, chaotic and maximal-parallel engines are three legitimate
refinements.  The report shows that on confluent workloads all three reach the
same stable multiset while differing exactly where they should: number of
steps (parallel < sequential) and scheduling overhead (timings).
"""

import pytest

from _report import emit_report
from repro.analysis import format_table
from repro.gamma import run as run_gamma
from repro.workloads import make_workload
from repro.api import RuntimeConfig

ENGINES = ("sequential", "chaotic", "parallel")
WORKLOADS = ("min_element", "sum_reduction", "prime_sieve", "exchange_sort", "gcd")


def test_report_scheduler_comparison(benchmark):
    _w = make_workload('min_element', size=16, seed=4)
    benchmark(lambda: run_gamma(_w.program, _w.initial, config=RuntimeConfig(engine='sequential')))
    rows = []
    for name in WORKLOADS:
        workload = make_workload(name, size=24, seed=4)
        finals = set()
        for engine in ENGINES:
            result = run_gamma(workload.program, workload.initial, config=RuntimeConfig(engine=engine, seed=7))
            finals.add(tuple(sorted(map(str, result.final.values_with_label(workload.label)))))
            rows.append([name, engine, result.firings, result.steps,
                         round(result.firings / max(result.steps, 1), 2)])
        assert len(finals) == 1, f"{name}: schedulers disagree"
    emit_report(
        "E7_schedulers",
        format_table(
            ["workload", "engine", "firings", "steps", "firings/step"],
            rows,
            title="E7: identical stable states, different schedules (Eq. 1 refinements)",
        ),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload_name", ["sum_reduction", "prime_sieve"])
def test_bench_engines(benchmark, engine, workload_name):
    workload = make_workload(workload_name, size=32, seed=1)
    result = benchmark(
        lambda: run_gamma(workload.program, workload.initial, config=RuntimeConfig(engine=engine, seed=3))
    )
    assert sorted(result.final.values_with_label(workload.label)) == workload.expected_sorted()

