"""Reaction-compiler benchmark: compiled vs interpreted step throughput.

Compares the compiled reaction pipeline (slot-based codegenned matchers,
compiled guards/productions, fast rewrite path) against the interpreted
baseline (``compiled=False``: PR-1's per-candidate dict-copy matcher and
AST-walking guards/productions), both on the incremental scheduler.

Per-step cost is measured by the *slope method*: two bounded sequential runs
with different step budgets, the difference in wall time divided by the
difference in steps — setup costs (multiset copy, index rebuild, reaction
compilation) cancel out, leaving pure steady-state step cost.

Workloads (all classic Gamma programs from the paper literature):

* ``min_element`` — Eq. 2 of the paper verbatim, guard ``x < y``.  This is
  the acceptance workload: >= 3x step-throughput at 10^4 elements.
* ``sum_reduction`` — guard-free binary fold.  The interpretive overhead a
  compiler can remove is smallest here (no guard, trivially-satisfied
  matching), so its ratio is the honest lower bound of the technique.
* ``exchange_sort`` — guarded swap over an indexed multiset; quadratic
  candidate exploration per probe, so only run at small sizes.

A trace-equivalence sweep over all paper workloads x all three engines backs
the acceptance criterion that seeded traces are bit-identical between
``compiled=True`` and ``compiled=False``.

Set ``BENCH_FAST=1`` for the CI smoke mode: tiny sizes, same JSON schema,
asserts the compiled path is actually exercised.
"""

import os
import time

from _report import emit_json, emit_report
from repro.analysis import format_table
from repro.gamma import (
    ChaoticEngine,
    CompiledMatch,
    ParallelEngine,
    SequentialEngine,
    compile_reaction,
)
from repro.workloads import make_workload

FAST_MODE = os.environ.get("BENCH_FAST", "") not in ("", "0")

#: Sizes swept for the linear workloads (10^2 .. 10^5).
LINEAR_SIZES = (100, 1_000) if FAST_MODE else (100, 1_000, 10_000, 100_000)
#: Sizes for the quadratic-probe workload.
QUADRATIC_SIZES = (100,) if FAST_MODE else (100, 400)
#: Step budgets for the slope measurement (low, high).
STEP_BUDGETS = (32, 160) if FAST_MODE else (128, 1152)
#: Acceptance: required compiled/interpreted throughput ratio at 10^4.
ACCEPTANCE_SIZE = 10_000
ACCEPTANCE_WORKLOAD = "min_element"
ACCEPTANCE_RATIO = 3.0

TRACE_WORKLOADS = ("min_element", "sum_reduction", "prime_sieve", "exchange_sort", "gcd")


def _per_step_seconds(workload, compiled, repeats=3):
    """Steady-state seconds/step for a bounded sequential run (slope method)."""
    low, high = STEP_BUDGETS
    timings = {}
    for steps in (low, high):
        budget = min(steps, len(workload.initial) - 1)
        best = None
        for _ in range(repeats):
            engine = SequentialEngine(
                max_steps=budget, raise_on_budget=False, compiled=compiled
            )
            multiset = workload.initial.copy()
            start = time.perf_counter()
            engine.run(workload.program, multiset)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        timings[steps] = (best, budget)
    (t_low, s_low), (t_high, s_high) = timings[low], timings[high]
    if s_high == s_low:  # workload too small for the slope: fall back to mean
        return t_high / max(s_high, 1)
    return (t_high - t_low) / (s_high - s_low)


def _assert_compiled_path_exercised(workload):
    """The compiled engines must actually run compiled reactions."""
    for reaction in workload.program.reactions:
        compiled = compile_reaction(reaction)
        assert compiled.plan.is_identity, reaction.name
    from repro.gamma import Matcher

    matcher = Matcher(workload.initial, compiled=True)
    match = matcher.find(workload.program.reactions[0])
    assert match is None or isinstance(match, CompiledMatch)


def _trace_key(result):
    return [
        (f.step, f.reaction, f.consumed, f.produced, f.binding)
        for f in result.trace.firings()
    ]


def test_report_reaction_compiler_scaling():
    """Compiled vs interpreted step throughput, 10^2–10^5 (sequential engine)."""
    records = []
    rows = []
    speedups = {}

    sweeps = [("min_element", LINEAR_SIZES), ("sum_reduction", LINEAR_SIZES)]
    sweeps.append(("exchange_sort", QUADRATIC_SIZES))

    for name, sizes in sweeps:
        for size in sizes:
            workload = make_workload(name, size=size, seed=7)
            _assert_compiled_path_exercised(workload)
            per_step = {}
            for mode, compiled in (("interpreted", False), ("compiled", True)):
                seconds = _per_step_seconds(workload, compiled)
                per_step[mode] = seconds
                records.append(
                    {
                        "workload": name,
                        "engine": "sequential",
                        "mode": mode,
                        "size": size,
                        "seconds_per_step": seconds,
                        "steps_per_second": 1.0 / seconds if seconds > 0 else None,
                    }
                )
            ratio = per_step["interpreted"] / per_step["compiled"]
            speedups[f"{name}@{size}"] = ratio
            rows.append(
                [
                    name,
                    size,
                    f"{per_step['interpreted']*1e6:.2f}",
                    f"{per_step['compiled']*1e6:.2f}",
                    f"{ratio:.1f}x",
                ]
            )

    # -- seeded-trace bit-identity across the compiled flag --------------------
    trace_identical = {}
    for name in TRACE_WORKLOADS:
        workload = make_workload(name, size=14, seed=5)
        identical = True
        for cls, kwargs in (
            (SequentialEngine, {}),
            (ChaoticEngine, {"seed": 11}),
            (ParallelEngine, {"seed": 11}),
        ):
            fast = cls(compiled=True, **kwargs).run(workload.program, workload.initial)
            base = cls(compiled=False, **kwargs).run(workload.program, workload.initial)
            identical = (
                identical
                and _trace_key(fast) == _trace_key(base)
                and fast.final == base.final
            )
        trace_identical[name] = identical
    assert all(trace_identical.values()), trace_identical

    emit_report(
        "E11_reaction_compiler",
        format_table(
            ["workload", "size", "interpreted us/step", "compiled us/step", "speedup"],
            rows,
            title="E11: compiled reactions vs interpreted matching (sequential engine)",
        ),
    )
    payload_path = emit_json(
        "BENCH_reaction_compiler",
        experiment="reaction_compiler",
        results=records,
        speedups=speedups,
        trace_identical=trace_identical,
        acceptance={
            "workload": ACCEPTANCE_WORKLOAD,
            "size": ACCEPTANCE_SIZE,
            "required_ratio": ACCEPTANCE_RATIO,
        },
        fast_mode=FAST_MODE,
    )
    assert payload_path.exists()

    key = f"{ACCEPTANCE_WORKLOAD}@{ACCEPTANCE_SIZE}"
    if key in speedups:  # the acceptance size is not swept in fast mode
        assert speedups[key] >= ACCEPTANCE_RATIO, (
            f"expected >={ACCEPTANCE_RATIO}x at {ACCEPTANCE_SIZE}, "
            f"got {speedups[key]:.1f}x"
        )


def test_json_schema_is_stable():
    """The committed BENCH_reaction_compiler.json keeps its envelope keys."""
    import json
    from pathlib import Path

    path = Path(__file__).parent / "reports" / "BENCH_reaction_compiler.json"
    if not path.exists():  # first run in a fresh checkout: scaling test writes it
        return
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["experiment"] == "reaction_compiler"
    assert {"workload", "engine", "mode", "size", "seconds_per_step"} <= set(
        payload["results"][0]
    )
    assert "speedups" in payload and "trace_identical" in payload
