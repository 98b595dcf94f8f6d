"""Experiment E9(d) — the distributed-multiset (IoT) partition sweep.

The paper motivates the equivalence with execution "in a distributed multiset
environment" (IoT).  This benchmark runs Gamma workloads on the in-process
sharded runtime under the one-firing-per-device cost model
(``firings_per_worker_step=1``: each shard fires at most once per barrier
round), sweeping the number of partitions (devices): parallel steps drop while
migrations/messages rise, exposing the locality/communication trade-off a real
deployment would face.  Results always match the centralized execution.
"""

import pytest

from _report import emit_report
from repro.analysis import format_table
from repro.gamma import run as run_gamma
from repro.runtime import DistributedGammaRuntime
from repro.workloads import make_workload
from repro.api import RuntimeConfig

PARTITIONS = (1, 2, 4, 8, 16)


def test_report_partition_sweep(benchmark):
    _w = make_workload('sum_reduction', size=32, seed=11)
    benchmark(lambda: DistributedGammaRuntime(_w.program, 4, config=RuntimeConfig(seed=3)).run(_w.initial))
    workload = make_workload("sum_reduction", size=64, seed=11)
    reference = run_gamma(workload.program, workload.initial, engine="sequential").final
    rows = []
    for partitions in PARTITIONS:
        runtime = DistributedGammaRuntime(
            workload.program,
            partitions,
            firings_per_worker_step=1,
            config=RuntimeConfig(seed=3, backend="inprocess"),
        )
        result = runtime.run(workload.initial)
        rows.append([
            partitions,
            result.steps,
            result.firings,
            result.migrations,
            result.messages,
            round(result.communication_ratio, 3),
            "yes" if result.final == reference else "NO",
        ])
    emit_report(
        "E9d_distributed",
        format_table(
            ["partitions", "steps", "firings", "migrations", "messages", "msgs/firing", "correct"],
            rows,
            title="E9(d): sum reduction over a partitioned (IoT-style) multiset",
        ),
    )
    assert all(row[-1] == "yes" for row in rows)
    assert rows[-1][1] < rows[0][1]          # more devices -> fewer steps
    assert rows[-1][4] > rows[0][4]          # ... at the price of more messages


@pytest.mark.parametrize("partitions", (1, 4, 16))
def test_bench_distributed_runtime(benchmark, partitions):
    workload = make_workload("sum_reduction", size=48, seed=5)
    runtime = DistributedGammaRuntime(workload.program, partitions, config=RuntimeConfig(seed=1))
    result = benchmark(runtime.run, workload.initial)
    assert sorted(result.values_with_label(workload.label)) == workload.expected_sorted()


@pytest.mark.parametrize("workload_name", ["min_element", "prime_sieve"])
def test_bench_distributed_workloads(benchmark, workload_name):
    workload = make_workload(workload_name, size=24, seed=2)
    runtime = DistributedGammaRuntime(workload.program, 4, config=RuntimeConfig(seed=0))
    result = benchmark(runtime.run, workload.initial)
    assert sorted(result.values_with_label(workload.label)) == workload.expected_sorted()
