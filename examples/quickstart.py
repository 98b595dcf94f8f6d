"""Quickstart: the paper's Example 1 end to end.

Builds the Fig. 1 dataflow graph for ``m = (x + y) - (k * j)``, runs it with
the tagged-token interpreter, converts it to a Gamma program with Algorithm 1,
prints the generated Gamma code (same style as the paper's listings), runs the
Gamma program with all three engines, and checks the equivalence mechanically.

Run with::

    python examples/quickstart.py
"""

from repro.core import check_dataflow_vs_gamma, dataflow_to_gamma
from repro.dataflow import run_graph
from repro.dataflow.dot import to_dot
from repro.gamma import run as run_gamma
from repro.gamma.dsl import format_program
from repro.workloads.paper_examples import example1_graph
from repro.api import RuntimeConfig


def main() -> None:
    # 1. The dataflow side: Fig. 1 (x=1, y=5, k=3, j=2).
    graph = example1_graph()
    print("Dataflow graph:", graph)
    print("  vertices:", {n.node_id: n.kind for n in graph.nodes})
    print("  edge labels:", graph.labels())

    df_result = run_graph(graph)
    print("\nDataflow execution: m =", df_result.single_output("m"))

    # 2. Algorithm 1: dataflow graph -> Gamma program + initial multiset.
    conversion = dataflow_to_gamma(graph)
    print("\nGenerated Gamma program (Algorithm 1):\n")
    print(format_program(conversion.program))

    # 3. Run the Gamma program with every engine.
    for engine in ("sequential", "chaotic", "parallel"):
        result = run_gamma(conversion.program, config=RuntimeConfig(engine=engine, seed=0))
        print(f"Gamma [{engine:12s}] m = {result.final.values_with_label('m')}  "
              f"({result.firings} firings in {result.steps} steps)")

    # 4. Mechanical equivalence check (all engines, several seeds).
    report = check_dataflow_vs_gamma(graph)
    print("\n" + report.summary())

    # 5. A DOT rendering of the graph (paste into Graphviz to reproduce Fig. 1).
    print("\nDOT output:\n")
    print(to_dot(graph))


if __name__ == "__main__":
    main()
