"""Parallel superstep backend benchmark: supersteps vs sequential compiled.

Compares the batched :class:`~repro.gamma.engine.ParallelEngine` (maximal
disjoint superstep extraction through the compiled collectors, batched
rewrites) against the sequential
compiled engine — the winner of PR 2 — running each workload *to the stable
state* and reporting firing throughput (reactions applied per wall second).

Workloads (sizes 10^2–10^5):

* ``min_element`` — the acceptance workload: the parallel backend must reach
  >= 2x the sequential compiled firing throughput at 10^4 elements;
* ``sum_reduction`` — guard-free fold, the honest lower bound (every element
  pairs, so sequential matching is already cheap).

One more ratio is gated in *both* modes, because it is a complexity class
rather than a speed: a seeded run over *distinct* values (the worst case for
candidate shuffling — no copies to fold into multiplicities) may cost at most
2x the unseeded run.  The seeded collectors draw one permutation per bucket
per superstep; a per-candidate reshuffle reads ~66x at 10^4 (~10x at the fast
mode's 10^3).

Two structural checks back the acceptance criteria:

* seeded superstep traces are repeatable, and the PE-pool counting model
  (:class:`~repro.runtime.GammaSimulator`) steps through the very schedule
  the engine fires;
* the parallel backend reaches the same stable multiset as the sequential
  compiled engine on every paper workload.

Set ``BENCH_FAST=1`` for the CI smoke mode: tiny sizes, same JSON schema.
"""

import os
import random
import time
from functools import partial

from _report import emit_json, emit_report
from repro.analysis import format_table
from repro.gamma import ParallelEngine, SequentialEngine
from repro.gamma.stdlib import min_element, values_multiset
from repro.runtime import GammaSimulator
from repro.workloads import make_workload
from repro.workloads.classic import ClassicWorkload

FAST_MODE = os.environ.get("BENCH_FAST", "") not in ("", "0")

#: Sizes swept (10^2 .. 10^5).
SIZES = (100, 1_000) if FAST_MODE else (100, 1_000, 10_000, 100_000)
#: Workloads swept (all linear-probe classics).
WORKLOADS = ("min_element", "sum_reduction")
#: Acceptance: required parallel/sequential firing-throughput ratio at 10^4.
ACCEPTANCE_SIZE = 10_000
ACCEPTANCE_WORKLOAD = "min_element"
ACCEPTANCE_RATIO = 2.0
#: Acceptance: seeded / unseeded wall time on distinct values (both modes).
SEEDED_SIZE = 1_000 if FAST_MODE else 10_000
SEEDED_MAX_RATIO = 2.0

TRACE_WORKLOADS = ("min_element", "sum_reduction", "prime_sieve", "exchange_sort", "gcd")


def _run_to_stable(workload, engine_factory, repeats=3):
    """Best-of-``repeats`` full run; returns (seconds, steps, firings)."""
    best = None
    for _ in range(repeats):
        engine = engine_factory()
        multiset = workload.initial.copy()
        start = time.perf_counter()
        result = engine.run(workload.program, multiset)
        elapsed = time.perf_counter() - start
        assert result.stable
        if best is None or elapsed < best[0]:
            best = (elapsed, result.steps, result.firings)
    return best


def _trace_key(result):
    return [
        (f.step, f.reaction, f.consumed, f.produced, f.binding, f.times)
        for f in result.trace.firings()
    ]


def test_report_parallel_engine_scaling():
    """Superstep backend vs sequential compiled engine, full runs to stable."""
    records = []
    rows = []
    speedups = {}

    for name in WORKLOADS:
        for size in SIZES:
            workload = make_workload(name, size=size, seed=7)
            throughput = {}
            for mode, factory in (
                ("sequential", SequentialEngine),
                ("parallel", ParallelEngine),
            ):
                seconds, steps, firings = _run_to_stable(workload, factory)
                throughput[mode] = firings / seconds if seconds > 0 else float("inf")
                records.append(
                    {
                        "workload": name,
                        "engine": mode,
                        "mode": "compiled",
                        "size": size,
                        "seconds": seconds,
                        "steps": steps,
                        "firings": firings,
                        "firings_per_second": throughput[mode],
                        "seconds_per_step": seconds / steps if steps else None,
                    }
                )
            ratio = throughput["parallel"] / throughput["sequential"]
            speedups[f"{name}@{size}"] = ratio
            rows.append(
                [
                    name,
                    size,
                    f"{throughput['sequential']:.0f}",
                    f"{throughput['parallel']:.0f}",
                    f"{ratio:.1f}x",
                ]
            )

    # -- a seed must not change the complexity class ----------------------------
    values = random.Random(7).sample(range(10 * SEEDED_SIZE), SEEDED_SIZE)
    distinct = ClassicWorkload("min_element", min_element(), values_multiset(values), [min(values)])
    seeded = {}
    for mode, factory in (
        ("parallel", ParallelEngine),
        ("parallel-seeded", partial(ParallelEngine, seed=1)),
    ):
        seconds, steps, firings = _run_to_stable(distinct, factory, repeats=5)
        seeded[mode] = {
            "workload": "min_element_distinct",
            "engine": mode,
            "mode": "compiled",
            "size": SEEDED_SIZE,
            "seconds": seconds,
            "steps": steps,
            "firings": firings,
            "firings_per_second": firings / seconds,
            "seconds_per_step": seconds / steps,
        }
    records.extend(seeded.values())
    seeded_ratio = seeded["parallel-seeded"]["seconds"] / seeded["parallel"]["seconds"]
    rows.append(
        [
            "min_element (distinct)",
            SEEDED_SIZE,
            "-",
            f"{seeded['parallel']['firings_per_second']:.0f}",
            f"seeded/unseeded wall {seeded_ratio:.2f}x",
        ]
    )

    # -- seeded traces repeat, and the counting model replays them ----------------
    trace_identical = {}
    for name in TRACE_WORKLOADS:
        workload = make_workload(name, size=24, seed=5)
        first, second = (
            ParallelEngine(seed=11).run(workload.program, workload.initial)
            for _ in range(2)
        )
        counted = GammaSimulator(workload.program, seed=11).run(workload.initial)
        # ... and the backend agrees with the sequential compiled engine.
        sequential = SequentialEngine().run(workload.program, workload.initial)
        trace_identical[name] = (
            _trace_key(first) == _trace_key(second)
            and counted.metrics.profile == first.parallelism_profile()
            and first.final == counted.final == sequential.final
        )
    assert all(trace_identical.values()), trace_identical

    emit_report(
        "E12_parallel_engine",
        format_table(
            ["workload", "size", "sequential f/s", "parallel f/s", "speedup"],
            rows,
            title="E12: parallel superstep backend vs sequential compiled engine",
        ),
    )
    payload_path = emit_json(
        "BENCH_parallel_engine",
        experiment="parallel_engine",
        results=records,
        speedups=speedups,
        trace_identical=trace_identical,
        acceptance={
            "workload": ACCEPTANCE_WORKLOAD,
            "size": ACCEPTANCE_SIZE,
            "required_ratio": ACCEPTANCE_RATIO,
        },
        seeded_over_unseeded={
            "workload": "min_element_distinct",
            "size": SEEDED_SIZE,
            "wall_ratio": seeded_ratio,
            "max_ratio": SEEDED_MAX_RATIO,
        },
        fast_mode=FAST_MODE,
    )
    assert payload_path.exists()

    assert seeded_ratio <= SEEDED_MAX_RATIO, (
        f"seeded run costs {seeded_ratio:.1f}x the unseeded one on {SEEDED_SIZE} "
        f"distinct values (allowed {SEEDED_MAX_RATIO}x)"
    )

    key = f"{ACCEPTANCE_WORKLOAD}@{ACCEPTANCE_SIZE}"
    if key in speedups:  # the acceptance size is not swept in fast mode
        assert speedups[key] >= ACCEPTANCE_RATIO, (
            f"expected >={ACCEPTANCE_RATIO}x at {ACCEPTANCE_SIZE}, "
            f"got {speedups[key]:.1f}x"
        )


def test_json_schema_is_stable():
    """The committed BENCH_parallel_engine.json keeps its envelope keys."""
    import json
    from pathlib import Path

    path = Path(__file__).parent / "reports" / "BENCH_parallel_engine.json"
    if not path.exists():  # first run in a fresh checkout: scaling test writes it
        return
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["experiment"] == "parallel_engine"
    assert {"workload", "engine", "size", "firings_per_second"} <= set(
        payload["results"][0]
    )
    assert "speedups" in payload and "trace_identical" in payload
