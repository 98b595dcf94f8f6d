"""Sharded runtime benchmark: the shard backends side by side.

Runs :class:`~repro.runtime.distributed.DistributedGammaRuntime` backends on
each workload *to the globally quiescent state* and reports firing
throughput (reactions applied per wall second):

* ``inprocess`` — the sharded subsystem (compiled per-shard schedulers,
  maximal local supersteps, footprint-routed batched exchanges, two-phase
  quiescence) with shards as objects;
* ``multiprocessing`` — the same protocol with shard workers as OS processes
  (measured at the largest swept size only; process startup dominates small
  sizes).

Every timed run is checked against the sequential compiled engine's stable
multiset, and a structural sweep asserts that every backend reaches it, so
the CI bench-gate compares throughput only between runs that did all the
work.

Set ``BENCH_FAST=1`` for the CI smoke mode: tiny sizes, same JSON schema.
"""

import multiprocessing
import os
import time

from _report import emit_json, emit_report
from repro.analysis import format_table, shard_balance
from repro.gamma import run
from repro.runtime import DistributedGammaRuntime

from repro.workloads import make_workload
from repro.api import RuntimeConfig

FAST_MODE = os.environ.get("BENCH_FAST", "") not in ("", "0")
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: Sizes swept.
SIZES = (100, 1_000) if FAST_MODE else (100, 1_000, 10_000)
#: Workloads swept.
WORKLOADS = ("min_element", "sum_reduction")
#: Shard/partition count used for every backend.
SHARDS = 4

#: Workloads for the structural (correctness) sweep across all backends.
EQUIVALENCE_WORKLOADS = ("min_element", "sum_reduction", "prime_sieve", "gcd")


def _run_to_quiescence(workload, reference, backend, repeats=3):
    """Best-of-``repeats`` full distributed run; returns (seconds, result).

    ``reference`` is the sequential compiled engine's result for the same
    workload (computed once per workload/size by the caller); every timed run
    is checked against its stable multiset.
    """
    best = None
    for _ in range(repeats):
        runtime = DistributedGammaRuntime(workload.program, SHARDS, config=RuntimeConfig(seed=3, backend=backend))
        multiset = workload.initial.copy()
        start = time.perf_counter()
        result = runtime.run(multiset)
        elapsed = time.perf_counter() - start
        assert result.final == reference.final, (workload.name, backend)
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def test_report_sharded_runtime_scaling():
    """Sharded backends, full runs to global quiescence."""
    records = []
    rows = []

    for name in WORKLOADS:
        for size in SIZES:
            workload = make_workload(name, size=size, seed=7)
            reference = run(workload.program, workload.initial.copy(), config=RuntimeConfig(engine="sequential"))
            throughput = {}
            backends = ["inprocess"]
            if size == SIZES[-1] and FORK_AVAILABLE:
                backends.append("multiprocessing")
            for backend in backends:
                seconds, result = _run_to_quiescence(workload, reference, backend)
                throughput[backend] = (
                    result.firings / seconds if seconds > 0 else float("inf")
                )
                records.append(
                    {
                        "workload": name,
                        "backend": backend,
                        "mode": "distributed",
                        "size": size,
                        "shards": SHARDS,
                        "seconds": seconds,
                        "steps": result.steps,
                        "firings": result.firings,
                        "migrations": result.migrations,
                        "messages": result.messages,
                        "firing_balance": shard_balance(result.per_partition_firings),
                        "firings_per_second": throughput[backend],
                    }
                )
            rows.append(
                [
                    name,
                    size,
                    f"{throughput['inprocess']:.0f}",
                    f"{throughput.get('multiprocessing', float('nan')):.0f}",
                ]
            )

    # -- structural: every backend reaches the sequential stable state ----------
    equivalent = {}
    for name in EQUIVALENCE_WORKLOADS:
        workload = make_workload(name, size=32, seed=5)
        reference = run(workload.program, workload.initial.copy(), config=RuntimeConfig(engine="sequential"))
        agreed = True
        backends = ["inprocess"]
        if FORK_AVAILABLE:
            backends.append("multiprocessing")
        for backend in backends:
            result = DistributedGammaRuntime(workload.program, SHARDS, config=RuntimeConfig(seed=9, backend=backend)).run(workload.initial.copy())
            agreed = agreed and result.final == reference.final
        equivalent[name] = agreed
    assert all(equivalent.values()), equivalent

    emit_report(
        "E13_sharded_runtime",
        format_table(
            ["workload", "size", "inprocess f/s", "mp f/s"],
            rows,
            title="E13: sharded runtime backends, firings per second",
        ),
    )
    payload_path = emit_json(
        "BENCH_sharded_runtime",
        experiment="sharded_runtime",
        results=records,
        equivalent=equivalent,
        fast_mode=FAST_MODE,
    )
    assert payload_path.exists()


def test_json_schema_is_stable():
    """The committed BENCH_sharded_runtime.json keeps its envelope keys."""
    import json
    from pathlib import Path

    path = Path(__file__).parent / "reports" / "BENCH_sharded_runtime.json"
    if not path.exists():  # first run in a fresh checkout: scaling test writes it
        return
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["experiment"] == "sharded_runtime"
    assert {"workload", "backend", "size", "shards", "firings_per_second"} <= set(
        payload["results"][0]
    )
    assert "equivalent" in payload
