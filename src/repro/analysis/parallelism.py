"""Parallelism analysis for both models.

Two kinds of quantities are produced:

* **static** bounds derived from the dataflow graph structure: critical-path
  length (the minimum number of parallel steps any schedule needs) and maximum
  width of the precedence DAG — computed on acyclic graphs (expression DAGs)
  or on the unrolled firing DAG of executions with loops;
* **dynamic** profiles measured on executions: firings per step of the
  simulators / the parallel Gamma engine, summarized by
  :class:`~repro.runtime.metrics.ParallelRunMetrics`.

The cross-model comparison of experiment E9(a) uses
:func:`compare_parallelism`, which runs the same program on both sides and
returns the two profiles with matching semantics (root injections are not
counted as work on either side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.df_to_gamma import dataflow_to_gamma
from ..dataflow.graph import DataflowGraph
from ..gamma.program import GammaProgram
from ..multiset.multiset import Multiset
from ..runtime.df_simulator import simulate_graph
from ..runtime.gamma_simulator import simulate_program
from ..runtime.metrics import ParallelRunMetrics

__all__ = [
    "critical_path_length",
    "graph_width",
    "dataflow_parallelism",
    "gamma_parallelism",
    "ParallelismComparison",
    "compare_parallelism",
]


def critical_path_length(graph: DataflowGraph) -> int:
    """Length (in vertices) of the longest path through operational vertices.

    Only defined for acyclic graphs — loop graphs should be measured
    dynamically instead.  Root vertices contribute depth 0.
    """
    order = graph.topological_order()
    depth: Dict[str, int] = {}
    for node_id in order:
        node = graph.node(node_id)
        incoming = graph.in_edges(node_id)
        best = 0
        for edge in incoming:
            best = max(best, depth.get(edge.src, 0))
        depth[node_id] = best if node.is_root else best + 1
    return max(depth.values(), default=0)


def graph_width(graph: DataflowGraph) -> int:
    """Maximum number of operational vertices at the same depth (acyclic graphs)."""
    order = graph.topological_order()
    depth: Dict[str, int] = {}
    for node_id in order:
        node = graph.node(node_id)
        incoming = graph.in_edges(node_id)
        best = 0
        for edge in incoming:
            best = max(best, depth.get(edge.src, 0))
        depth[node_id] = best if node.is_root else best + 1
    counts: Dict[int, int] = {}
    for node_id, level in depth.items():
        if not graph.node(node_id).is_root:
            counts[level] = counts.get(level, 0) + 1
    return max(counts.values(), default=0)


def dataflow_parallelism(
    graph: DataflowGraph,
    num_pes: Optional[int] = None,
    seed: Optional[int] = None,
) -> ParallelRunMetrics:
    """Dynamic parallelism profile of a dataflow execution."""
    return simulate_graph(graph, num_pes=num_pes, seed=seed).metrics


def gamma_parallelism(
    program: GammaProgram,
    initial: Optional[Multiset] = None,
    num_pes: Optional[int] = None,
    seed: Optional[int] = None,
) -> ParallelRunMetrics:
    """Dynamic parallelism profile of a parallel Gamma execution.

    Runs :class:`~repro.runtime.gamma_simulator.GammaSimulator`;
    ``num_pes=None`` is the unbounded pool, i.e. the available parallelism.
    """
    from ..api import RuntimeConfig

    return simulate_program(
        program, initial, num_pes=num_pes, config=RuntimeConfig(seed=seed)
    ).metrics


@dataclass
class ParallelismComparison:
    """Side-by-side parallelism of one program executed in both models."""

    dataflow: ParallelRunMetrics
    gamma: ParallelRunMetrics

    def as_rows(self) -> List[Tuple[str, float, float]]:
        """Rows ``(metric, dataflow value, gamma value)`` for the report printer."""
        keys = ["steps", "work", "max_parallelism", "average_parallelism", "speedup"]
        df = self.dataflow.as_dict()
        gm = self.gamma.as_dict()
        return [(key, df[key], gm[key]) for key in keys]

    @property
    def profiles_match(self) -> bool:
        """True when both sides did the same amount of work in the same number of steps."""
        return (
            self.dataflow.work == self.gamma.work
            and self.dataflow.steps == self.gamma.steps
        )


def compare_parallelism(
    graph: DataflowGraph,
    num_pes: Optional[int] = None,
    seed: Optional[int] = None,
) -> ParallelismComparison:
    """Run ``graph`` on the dataflow simulator and its Algorithm 1 conversion on the
    Gamma simulator with the same PE budget, and return both profiles."""
    dataflow_metrics = dataflow_parallelism(graph, num_pes=num_pes, seed=seed)
    conversion = dataflow_to_gamma(graph)
    gamma_metrics = gamma_parallelism(
        conversion.program, conversion.initial, num_pes=num_pes, seed=seed
    )
    return ParallelismComparison(dataflow=dataflow_metrics, gamma=gamma_metrics)
