"""Sharded distributed execution walkthrough.

Runs one Gamma workload (``min_element``) through every distributed backend of
:class:`repro.runtime.DistributedGammaRuntime`:

* ``inprocess`` (the default) — the sharded subsystem: per-shard compiled schedulers firing
  maximal local supersteps, footprint-routed batched exchanges, work
  stealing, two-phase quiescence detection;
* ``multiprocessing`` — the same protocol with shard workers as OS processes
  (skipped automatically where process forking is unavailable);

then peeks inside the protocol: the routing table derived from the program's
reaction footprints, and the shard-balance / communication metrics from
``repro.analysis``.

Run with::

    python examples/sharded_runtime.py

Set ``EXAMPLES_SMOKE=1`` (the CI examples job does) to use a small problem
size so the script stays a fast smoke test.
"""

import multiprocessing
import os
import time

from repro.analysis import format_table, shard_load_report
from repro.gamma import run
from repro.runtime import DistributedGammaRuntime
from repro.runtime.sharding import RoutingTable
from repro.workloads import make_workload
from repro.api import RuntimeConfig

SMOKE = os.environ.get("EXAMPLES_SMOKE", "") not in ("", "0")
SIZE = 500 if SMOKE else 5_000
SHARDS = 4


def main() -> None:
    workload = make_workload("min_element", size=SIZE, seed=7)
    reference = run(workload.program, workload.initial.copy(), config=RuntimeConfig(engine="sequential"))
    print(f"min_element over {SIZE} elements, {SHARDS} shards")
    print(f"sequential reference: {reference.firings} firings\n")

    # 1. The routing table the sharded backends derive from the reactions:
    # every label a reaction can consume is grouped with its co-consumed
    # labels and assigned a home shard; inert labels are never migrated.
    table = RoutingTable(workload.program.reactions, SHARDS)
    print("Routing table (footprint label groups -> home shard):")
    for root, labels in sorted(table.groups.items()):
        print(f"  {sorted(labels)} -> shard {table.destination(root)}")
    print(f"  wildcard program: {table.wildcard}\n")

    # 2. Run every backend and compare against the sequential stable state.
    backends = ["inprocess"]
    if "fork" in multiprocessing.get_all_start_methods():
        backends.append("multiprocessing")
    rows = []
    for backend in backends:
        runtime = DistributedGammaRuntime(workload.program, SHARDS, config=RuntimeConfig(seed=3, backend=backend))
        start = time.perf_counter()
        result = runtime.run(workload.initial.copy())
        elapsed = time.perf_counter() - start
        assert result.final == reference.final, f"{backend} diverged!"
        report = shard_load_report(result)
        rows.append(
            [
                backend,
                f"{elapsed:.3f}s",
                result.firings,
                result.steps,
                result.migrations,
                result.messages,
                f"{report.firing_balance:.2f}",
            ]
        )
    print(
        format_table(
            ["backend", "wall", "firings", "steps", "migrations", "messages", "balance"],
            rows,
            title="Distributed backends (all reach the sequential stable state)",
        )
    )

    # 3. The sharded result carries protocol-level accounting.
    sharded = DistributedGammaRuntime(workload.program, SHARDS, config=RuntimeConfig(seed=3, backend="inprocess")).run(workload.initial.copy())
    print("\nSharded protocol accounting (inprocess):")
    print(f"  rounds={sharded.rounds} supersteps={sharded.supersteps}")
    print(f"  exchanges={sharded.exchanges} steals={sharded.steals}")
    print(f"  per-shard firings: {sharded.per_partition_firings}")
    print(f"  final shard sizes: {sharded.final_shard_sizes}")


if __name__ == "__main__":
    main()
