"""Chemistry-soup benchmark: placement quality on a skewed reaction soup.

The reaction-network pack's load benchmark: a chemistry soup (terminating,
mass-conserving, *non-confluent* — see :mod:`repro.workloads.chemistry`)
whose molecule pool and label groups all home to shard 0, so a static
placement grinds the whole soup through one shard while the rest idle.
Because the soup is not confluent, runs are validated by the **mass
invariant** (total ``value * count``, waste included) instead of a reference
multiset — every measured run must carry exactly the pool's initial mass.

Under a per-shard firing budget (``superstep_budget``), the drain cost is
measured in **barrier rounds** — the BSP cost model: a shard hosting every
hot group drains at BUDGET firings/round while spread groups drain at
BUDGET per *shard* per round.  Rounds are the headline (deterministic,
machine-independent — single-core CI cannot parallelize the matching work,
but every per-round cost, barriers and exchange IPC above all, scales with
them; the network backend shows the same ratio in wall-clock).  Three modes
per backend:

* **static** — hash placement, no stealing, no elasticity: the pathological
  baseline (shard balance ~= shard count).
* **stealing** — work stealing on: idle shards pull matches each round, a
  per-round palliative that leaves group homes untouched.
* **elastic** — an :class:`ElasticityPolicy` migrating hot groups at the
  barriers: placement is permanently repaired.

The CI bench-gate acceptance requires the **elastic run to beat static by
>= 1.2x in rounds at 4 shards** (full size only), and the committed JSON
reports ``shard_balance`` per mode so regressions in stealing/elasticity
balance are caught by eye and by the gate's ratio keys.  Wall-clock seconds
cover the drive phase only (sessions are started — shards spawned, reactions
compiled — before the timer), best-of-``REPEATS``.

Set ``BENCH_FAST=1`` for the CI smoke mode: tiny soup, same JSON schema.
"""

import multiprocessing
import os
import time

from _report import emit_json, emit_report
from repro.analysis import format_table, hot_label_report, shard_balance
from repro.api import RuntimeConfig, run
from repro.runtime import ElasticityPolicy
from repro.runtime.sharding import ShardCoordinator
from repro.runtime.sharding.routing import _stable_label_hash
from repro.workloads import make_soup

FAST_MODE = os.environ.get("BENCH_FAST", "") not in ("", "0")
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: Shards for the placement comparison.
NUM_SHARDS = 4
#: Soup shape: independent blocks (= migratable label groups) x species each.
#: Many small blocks: each block condenses to a handful of heavy molecules
#: whose decay chains advance one firing per round, so BLOCKS is (roughly)
#: the soup's breadth — far above the per-shard budget on the hot shard.
BLOCKS = 8 if FAST_MODE else 32
SPECIES = 3
MOLECULES = 48 if FAST_MODE else 224
VALUE_HIGH = 8
SEED = 2024
#: Per-shard firing budget per barrier round.  Deliberately far below the
#: block count: a shard hosting every hot group drains at BUDGET/round while
#: spread groups drain at BUDGET per *shard* per round — placement becomes
#: rounds, and rounds become wall-clock.
BUDGET = 4
REPEATS = 2 if FAST_MODE else 3

#: Acceptance: required static/elastic barrier-round ratio at NUM_SHARDS shards.
ACCEPTANCE_RATIO = 1.2

_SIZE_KEY = f"{BLOCKS}x{SPECIES}x{MOLECULES}"
_FULL_SIZE_KEY = "32x3x224"  # the full-mode _SIZE_KEY (acceptance runs only there)


def _migration_policy():
    """Migration-only policy: eager, generous move batches, no resizes."""
    return ElasticityPolicy(
        patience=1,
        cooldown=3,
        migrate_imbalance=1.3,
        split_threshold=10**9,
        merge_threshold=0,
        max_moves_per_round=8,
    )


def skewed_soup(num_shards=NUM_SHARDS):
    """A chemistry soup whose blocks and molecules all start on shard 0.

    Each block's condense chain joins its species into one routing group
    whose root is the block's lexicographically smallest label
    (``{base}s0``); block prefixes are searched so every group homes to
    shard 0, and ``element_home`` bumps molecule values until the initial
    hash placement lands every element there too.  Without stealing or
    elasticity nothing ever leaves the hot shard.
    """
    bases = []
    index = 0
    while len(bases) < BLOCKS:
        base = f"hot{index}_"
        if _stable_label_hash(f"{base}s0") % num_shards == 0:
            bases.append(base)
        index += 1
    return make_soup(
        blocks=BLOCKS,
        species_per_block=SPECIES,
        molecules=MOLECULES,
        seed=SEED,
        value_low=1,
        value_high=VALUE_HIGH,
        label_base=lambda block: bases[block],
        element_home=(0, num_shards),
    )


def _run_sharded(workload, backend, mode, repeats=REPEATS):
    """Best-of-``repeats`` sharded run; every run is mass-checked.

    Only the drive phase is timed: session start (shard spawn + reaction
    compilation — identical across modes, and dominant for a 100+-reaction
    soup) would otherwise drown the placement signal.
    """
    best = None
    for _ in range(repeats):
        coordinator = ShardCoordinator(
            workload.program,
            NUM_SHARDS,
            backend=backend,
            seed=SEED,
            # Lock-step rounds: the throughput-bounded-worker model counts
            # one budgeted superstep per shard per barrier round.
            round_supersteps=1,
            work_stealing=(mode == "stealing"),
            superstep_budget=BUDGET,
            elasticity=_migration_policy() if mode == "elastic" else None,
        )
        session = coordinator.start(workload.initial.copy())
        try:
            start = time.perf_counter()
            session.drive()
            elapsed = time.perf_counter() - start
            result = session.result()
        finally:
            session.close()
        assert workload.mass(result.final) == workload.initial_mass, (backend, mode)
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def test_report_soup_placement():
    """Skewed soup: static vs stealing vs elastic on the sharded backends."""
    workload = skewed_soup()

    records = []
    rows = []
    speedups = {}

    backends = ["inprocess"]
    if FORK_AVAILABLE:
        backends += ["multiprocessing", "network"]
    for backend in backends:
        repeats = 1 if backend == "network" else REPEATS
        measured = {}
        for mode in ("static", "stealing", "elastic"):
            seconds, result = _run_sharded(workload, backend, mode, repeats)
            balance = shard_balance(result.per_partition_firings)
            measured[mode] = (seconds, result, balance)
            records.append(
                {
                    "workload": "skewed_soup",
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
                    "shard_balance": balance,
                    "group_migrations": result.group_migrations,
                    "scale_events": result.scale_events,
                    "mass": workload.initial_mass,
                }
            )
        static_s, static_r, static_b = measured["static"]
        stealing_s, stealing_r, stealing_b = measured["stealing"]
        elastic_s, elastic_r, elastic_b = measured["elastic"]
        if backend == "inprocess":
            # Round ratios off the always-available deterministic backend:
            # the gate key exists on fork-less CI runners too.
            key = f"skewed_soup@{_SIZE_KEY}:{NUM_SHARDS}shards"
            speedups[f"{key}:elastic_vs_static_rounds"] = (
                static_r.rounds / elastic_r.rounds
            )
            speedups[f"{key}:stealing_vs_static_rounds"] = (
                static_r.rounds / stealing_r.rounds
            )
        rows.append(
            [
                backend,
                f"{static_r.rounds} ({static_s * 1e3:.0f}ms)",
                f"{stealing_r.rounds} ({stealing_s * 1e3:.0f}ms)",
                f"{elastic_r.rounds} ({elastic_s * 1e3:.0f}ms)",
                f"{static_b:.2f}",
                f"{stealing_b:.2f}",
                f"{elastic_b:.2f}",
                elastic_r.group_migrations,
            ]
        )
        # The pathological placement must be visible, and both remedies must
        # actually rebalance (stealing per-round, elasticity permanently)
        # AND drain in fewer barrier rounds than the starved static shard.
        assert static_b > 2.5, (backend, static_b)
        assert stealing_b < static_b, (backend, stealing_b, static_b)
        assert elastic_b < static_b, (backend, elastic_b, static_b)
        assert stealing_r.rounds < static_r.rounds, (backend, stealing_r.rounds)
        assert elastic_r.rounds < static_r.rounds, (backend, elastic_r.rounds)
        assert elastic_r.group_migrations > 0

    # The hot-label report names where the soup's load concentrates — the
    # labels whose groups the elastic runs end up migrating.
    trace = run(
        workload.program,
        workload.initial.copy(),
        config=RuntimeConfig(engine="sequential", seed=0),
    ).trace
    hot = hot_label_report(trace, top=5)

    emit_report(
        "E17_chemistry",
        format_table(
            [
                "backend",
                "static rounds",
                "stealing rounds",
                "elastic rounds",
                "balance static",
                "balance stealing",
                "balance elastic",
                "moves",
            ],
            rows,
            title=(
                "E17: placement remedies on a skewed chemistry soup "
                f"({BLOCKS} hot blocks, {NUM_SHARDS} shards, mass-invariant "
                f"checked); hottest labels: "
                + ", ".join(f"{label}({c}+{p})" for label, c, p in hot)
            ),
        ),
    )

    payload_path = emit_json(
        "BENCH_chemistry",
        experiment="chemistry",
        results=records,
        speedups=speedups,
        acceptance={
            "workload": "skewed_soup",
            "size": _FULL_SIZE_KEY,
            "shards": NUM_SHARDS,
            "required_ratio": ACCEPTANCE_RATIO,
        },
        fast_mode=FAST_MODE,
    )
    assert payload_path.exists()

    key = f"skewed_soup@{_FULL_SIZE_KEY}:{NUM_SHARDS}shards:elastic_vs_static_rounds"
    if key in speedups:  # absent in fast mode (smaller soup, different key)
        assert speedups[key] >= ACCEPTANCE_RATIO, (
            f"expected the elastic placement to drain >= {ACCEPTANCE_RATIO}x "
            f"fewer rounds at {NUM_SHARDS} shards, got {speedups[key]:.2f}x"
        )


def test_json_schema_is_stable():
    """The committed BENCH_chemistry.json keeps its envelope keys."""
    import json
    from pathlib import Path

    path = Path(__file__).parent / "reports" / "BENCH_chemistry.json"
    if not path.exists():  # first run in a fresh checkout: placement test writes it
        return
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["experiment"] == "chemistry"
    measured = [
        r for r in payload["results"] if r.get("mode") in ("static", "stealing", "elastic")
    ]
    assert measured and "shard_balance" in measured[0]
    assert "mass" in measured[0]
    assert {r["mode"] for r in measured} == {"static", "stealing", "elastic"}
    assert "speedups" in payload and "acceptance" in payload
