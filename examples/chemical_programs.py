"""Classic Gamma ("chemical") programs and the textual DSL.

Shows the Gamma model as a programming model in its own right: the classic
multiset-rewriting programs (minimum, sieve of Eratosthenes, exchange sort,
gcd), the Eq. 2 listing parsed from the paper's own syntax, sequential (`;`)
and parallel (`|`) composition, and execution on the simulated parallel
runtime and the sharded distributed (IoT-style) runtime.

Run with::

    python examples/chemical_programs.py
"""

from repro.analysis import format_table
from repro.gamma import run as run_gamma
from repro.gamma.dsl import compile_source, format_program
from repro.gamma.stdlib import (
    count_threshold,
    exchange_sort,
    gcd_program,
    indexed_multiset,
    min_element,
    prime_sieve,
    values_multiset,
)
from repro.runtime import DistributedGammaRuntime, simulate_program
from repro.workloads.paper_listings import EQ2_MIN_ELEMENT
from repro.api import RuntimeConfig


def main() -> None:
    # 1. Eq. 2 of the paper, parsed from its own syntax.
    eq2 = compile_source(EQ2_MIN_ELEMENT, name="eq2")
    print("Eq. 2 source reprinted from the parsed program:\n")
    print(format_program(eq2, include_init=False))
    result = run_gamma(eq2, values_multiset([21, 8, 13, 2, 34]), config=RuntimeConfig(engine="chaotic", seed=0))
    print("minimum of {21, 8, 13, 2, 34} =", result.final.values_with_label("x"), "\n")

    # 2. Classic chemical programs.
    rows = []
    sieve = run_gamma(prime_sieve(), values_multiset(range(2, 50)), config=RuntimeConfig(engine="chaotic", seed=1))
    rows.append(["prime sieve (2..49)", str(sorted(sieve.final.values_with_label("x")))])
    gcd = run_gamma(gcd_program(), values_multiset([252, 105, 84]), config=RuntimeConfig(engine="chaotic", seed=1))
    rows.append(["gcd {252, 105, 84}", str(gcd.final.values_with_label("x"))])
    sort = run_gamma(exchange_sort(), indexed_multiset([9, 4, 7, 1, 8]), config=RuntimeConfig(engine="chaotic", seed=1))
    rows.append(["exchange sort [9,4,7,1,8]",
                 str([e.value for e in sorted(sort.final, key=lambda e: e.tag)])])
    counted = run_gamma(count_threshold(10), values_multiset([4, 11, 25, 3, 10]), engine="sequential")
    rows.append(["count >= 10 in {4,11,25,3,10} (map ; reduce)",
                 str(counted.final.values_with_label("count"))])
    print(format_table(["program", "stable result"], rows, title="Classic Gamma programs"))

    # 3. Parallel execution: the sum over 64 values on 8 simulated PEs.
    from repro.gamma.stdlib import sum_reduction

    sim = simulate_program(sum_reduction(), values_multiset(range(1, 65)), num_pes=8, config=RuntimeConfig(seed=0))
    print(f"\nsum(1..64) on 8 PEs: {sim.final.values_with_label('x')} "
          f"in {sim.steps} steps (speedup {sim.metrics.speedup:.2f}, "
          f"utilization {sim.metrics.utilization:.0%})")

    # 4. Distributed multiset (the IoT motivation): 8 partitions.
    dist = DistributedGammaRuntime(sum_reduction(), 8, config=RuntimeConfig(seed=1)).run(values_multiset(range(1, 65)))
    print(f"distributed over 8 partitions: {dist.values_with_label('x')} "
          f"in {dist.steps} steps, {dist.migrations} migrations, {dist.messages} messages")


if __name__ == "__main__":
    main()
