"""Elasticity benchmark: elastic vs static placement on a skewed workload.

Measures the elasticity layer (`repro.runtime.elasticity`) on the sharded
runtime with a deliberately *pathological* initial placement: a decay
workload whose label groups all home to shard 0, so a static run leaves
three of four shards idle while shard 0 grinds through every firing.

Every shard runs under a per-round **firing budget** (``superstep_budget``),
the standard model of a throughput-bounded worker: a barrier round lets each
shard fire at most B matches.  Under skew the static run spends only one
shard's budget per round — the drain takes ~``shards``-fold more barrier
rounds, and barrier rounds are the expensive unit (round-trips, per-shard
match scans).  This makes the placement effect *wall-clock measurable on any
machine, single-core CI included*; on real multicore deployments the same
rebalance additionally parallelizes the firing compute.

* **elastic speedup** (acceptance, wired into the CI bench-gate) — the
  skewed run, static vs with an :class:`ElasticityPolicy` migrating hot
  groups at the barriers.  Work stealing is disabled on both sides so the
  comparison isolates *placement* (stealing is a per-round palliative with
  its own round-trip cost; group migration permanently rehomes the load).
  The gate requires **>= 1.3x at 4 shards** on the multiprocessing backend.
* **load balance** — max/mean per-shard firing imbalance with and without
  elasticity, plus migration counts and rounds-to-drain.
* **autoscale** — a run started at 2 shards with a split-enabled policy;
  reported as scale events and the final shard count (no gate: absolute
  resize latency is machine-bound).

Every measured run is checked against the sequential stable multiset, so
throughput can never come from dropping work — mid-resize rounds included.

Set ``BENCH_FAST=1`` for the CI smoke mode: tiny sizes, same JSON schema.
"""

import multiprocessing
import os
import time

from _report import emit_json, emit_report
from repro.analysis import format_table
from repro.api import RuntimeConfig, run
from repro.gamma.expr import BinOp, Compare, Const, var
from repro.gamma.pattern import ElementTemplate
from repro.gamma.program import GammaProgram
from repro.gamma.reaction import Branch, Reaction
from repro.gamma.stdlib import pattern
from repro.multiset import Element, Multiset, home_of
from repro.runtime import ElasticityPolicy
from repro.runtime.sharding import ShardCoordinator
from repro.runtime.sharding.routing import _stable_label_hash

FAST_MODE = os.environ.get("BENCH_FAST", "") not in ("", "0")
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: Shards for the acceptance comparison.
NUM_SHARDS = 4
#: Skewed-workload shape: label groups x (distinct values x copies) x depth.
LABELS = 8 if FAST_MODE else 32
DISTINCT = 3 if FAST_MODE else 6
COPIES = 2
PER_LABEL = DISTINCT * COPIES
DEPTH = 6 if FAST_MODE else 24
#: Per-shard firing budget per barrier round (the throughput-bounded-worker
#: model that turns placement quality into barrier-round counts).
BUDGET = 8 if FAST_MODE else 16
REPEATS = 2 if FAST_MODE else 3

#: Acceptance: required elastic/static throughput ratio at NUM_SHARDS shards.
ACCEPTANCE_RATIO = 1.3

_SIZE_KEY = f"{LABELS}x{PER_LABEL}x{DEPTH}"
_FULL_SIZE_KEY = "32x12x24"  # the full-mode _SIZE_KEY (acceptance runs only there)


def _migration_policy(**overrides):
    """Migration-only policy: hair-trigger, generous move batches, no resizes.

    ``migrate_imbalance`` sits slightly *below* the best size balance whole
    groups can reach (max/mean 4/3 when 32 groups spread 10/8/7/7), keeping
    the policy maximally eager: it re-checks histograms every cooldown
    window for the whole run, which measures the honest steady-state cost of
    staying balanced — and the rounds saved by the tighter balance outweigh
    those periodic round-trips.
    """
    params = dict(
        patience=1,
        cooldown=3,
        migrate_imbalance=1.3,
        split_threshold=10**9,
        merge_threshold=0,
        max_moves_per_round=8,
    )
    params.update(overrides)
    return ElasticityPolicy(**params)


def skewed_decay_workload(num_shards=NUM_SHARDS):
    """A decay program whose entire load starts (and stays) on shard 0.

    One single-element reaction per label (``x:L, x>0 → (x-1):L``) fires
    every superstep until its elements hit zero, so per-round work per shard
    is proportional to the elements it hosts.  Single-element matches never
    need the exchange, so placement is exactly the initial hash partition:
    labels are searched so every group homes to shard 0 and values so every
    element initially lands there too — without elasticity nothing ever
    leaves the hot shard.
    """
    labels = []
    index = 0
    while len(labels) < LABELS:
        label = f"hot{index}"
        if _stable_label_hash(label) % num_shards == 0:
            labels.append(label)
        index += 1
    reactions = [
        Reaction(
            name=f"Rdecay_{label}",
            replace=[pattern("x", label, "t")],
            branches=[
                Branch(
                    productions=[
                        ElementTemplate(
                            value=BinOp("-", var("x"), Const(1)),
                            label=Const(label),
                            tag=Const(0),
                        )
                    ]
                )
            ],
            guard=Compare(">", var("x"), Const(0)),
        )
        for label in labels
    ]
    program = GammaProgram(reactions, name="skewed_decay")
    initial = Multiset()
    for label in labels:
        found = 0
        value = DEPTH
        while found < DISTINCT:
            element = Element(value, label, 0)
            if home_of(element, num_shards) == 0:
                initial.add(element, COPIES)
                found += 1
            value += 1
    return program, initial


def _run_sharded(program, initial, reference, backend, elasticity_factory):
    """Best-of-``REPEATS`` sharded run; returns (seconds, result, policy)."""
    best = None
    for _ in range(REPEATS):
        policy = elasticity_factory() if elasticity_factory else None
        coordinator = ShardCoordinator(
            program,
            NUM_SHARDS,
            backend=backend,
            # Lock-step rounds: the throughput-bounded-worker model counts
            # one budgeted superstep per shard per barrier round.
            round_supersteps=1,
            work_stealing=False,
            superstep_budget=BUDGET,
            elasticity=policy,
        )
        start = time.perf_counter()
        result = coordinator.run(initial.copy())
        elapsed = time.perf_counter() - start
        assert result.final == reference, (backend, elasticity_factory)
        if best is None or elapsed < best[0]:
            best = (elapsed, result, policy)
    return best


def _balance(firings):
    """Max/mean per-shard firing ratio (1.0 = perfectly balanced)."""
    active = [f for f in firings if f > 0] or [0]
    mean = sum(firings) / len(firings)
    return max(firings) / mean if mean else float("inf"), len(active)


def test_report_elastic_speedup():
    """Skewed placement: static vs elastic on both sharded backends."""
    program, initial = skewed_decay_workload()
    reference = run(
        program, initial.copy(), config=RuntimeConfig(engine="sequential")
    ).final

    records = []
    rows = []
    speedups = {}

    backends = ["inprocess"] + (["multiprocessing"] if FORK_AVAILABLE else [])
    for backend in backends:
        static_s, static_r, _ = _run_sharded(
            program, initial, reference, backend, None
        )
        elastic_s, elastic_r, policy = _run_sharded(
            program, initial, reference, backend, _migration_policy
        )
        speedup = static_s / elastic_s if elastic_s > 0 else float("inf")
        static_imbalance, _ = _balance(static_r.per_partition_firings)
        elastic_imbalance, active = _balance(elastic_r.per_partition_firings)
        if backend == "multiprocessing":
            speedups[f"skewed_decay@{_SIZE_KEY}:{NUM_SHARDS}shards"] = speedup
        for mode, seconds, result, imbalance in (
            ("static", static_s, static_r, static_imbalance),
            ("elastic", elastic_s, elastic_r, elastic_imbalance),
        ):
            records.append(
                {
                    "workload": "skewed_decay",
                    "backend": backend,
                    "mode": mode,
                    "size": _SIZE_KEY,
                    "shards": NUM_SHARDS,
                    "seconds": seconds,
                    "firings": result.firings,
                    "rounds": result.rounds,
                    "firings_per_second": result.firings / seconds
                    if seconds > 0
                    else float("inf"),
                    "imbalance": imbalance,
                    "group_migrations": result.group_migrations,
                    "scale_events": result.scale_events,
                }
            )
        rows.append(
            [
                backend,
                f"{static_s * 1e3:.0f}",
                f"{elastic_s * 1e3:.0f}",
                f"{speedup:.2f}x",
                f"{static_imbalance:.2f}",
                f"{elastic_imbalance:.2f}",
                elastic_r.group_migrations,
                active,
            ]
        )
        # Elasticity must actually have acted, and acted usefully: groups
        # moved and the firing imbalance dropped.
        assert elastic_r.group_migrations > 0
        assert static_imbalance > 2.5
        assert elastic_imbalance < static_imbalance

    records.extend(_measure_autoscale(reference_cache=(program, initial, reference)))

    emit_report(
        "E16_elasticity",
        format_table(
            [
                "backend",
                "static ms",
                "elastic ms",
                "speedup",
                "imb before",
                "imb after",
                "moves",
                "active shards",
            ],
            rows,
            title=(
                "E16: elastic vs static placement on a skewed decay workload "
                f"({LABELS} hot groups, {NUM_SHARDS} shards)"
            ),
        ),
    )

    payload_path = emit_json(
        "BENCH_elasticity",
        experiment="elasticity",
        results=records,
        speedups=speedups,
        acceptance={
            "workload": "skewed_decay",
            "size": _FULL_SIZE_KEY,
            "shards": NUM_SHARDS,
            "required_ratio": ACCEPTANCE_RATIO,
        },
        fast_mode=FAST_MODE,
    )
    assert payload_path.exists()

    key = f"skewed_decay@{_FULL_SIZE_KEY}:{NUM_SHARDS}shards"
    if key in speedups:  # absent in fast mode / fork-less environments
        assert speedups[key] >= ACCEPTANCE_RATIO, (
            f"expected >= {ACCEPTANCE_RATIO}x elastic speedup at "
            f"{NUM_SHARDS} shards, got {speedups[key]:.2f}x"
        )


def _measure_autoscale(reference_cache):
    """Start undersized; report how the split policy scales the run out."""
    program, initial, reference = reference_cache
    policy = ElasticityPolicy(
        patience=1,
        cooldown=1,
        migrate_imbalance=10**9,
        split_threshold=max(2, (LABELS * PER_LABEL) // 4),
        merge_threshold=1,
        max_shards=NUM_SHARDS * 2,
    )
    coordinator = ShardCoordinator(
        program,
        2,
        backend="inprocess",
        round_supersteps=1,
        work_stealing=False,
        superstep_budget=BUDGET,
        elasticity=policy,
    )
    start = time.perf_counter()
    result = coordinator.run(initial.copy())
    elapsed = time.perf_counter() - start
    assert result.final == reference
    assert result.scale_events >= 1
    return [
        {
            "workload": "skewed_decay",
            "backend": "inprocess",
            "mode": "autoscale",
            "size": _SIZE_KEY,
            "initial_shards": 2,
            "final_shards": coordinator.num_shards,
            "scale_events": result.scale_events,
            "seconds": elapsed,
            "rounds": result.rounds,
        }
    ]


def test_json_schema_is_stable():
    """The committed BENCH_elasticity.json keeps its envelope keys."""
    import json
    from pathlib import Path

    path = Path(__file__).parent / "reports" / "BENCH_elasticity.json"
    if not path.exists():  # first run in a fresh checkout: speedup test writes it
        return
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["experiment"] == "elasticity"
    measured = [r for r in payload["results"] if r.get("mode") in ("static", "elastic")]
    assert measured and "firings_per_second" in measured[0]
    assert "imbalance" in measured[0]
    autoscale = [r for r in payload["results"] if r.get("mode") == "autoscale"]
    assert autoscale and "final_shards" in autoscale[0]
    assert "speedups" in payload and "acceptance" in payload
