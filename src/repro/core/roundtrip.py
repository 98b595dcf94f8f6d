"""Round-trip drivers combining both conversion directions.

These are thin orchestration helpers used by the examples, the benchmarks and
the property-based tests: convert, execute on both sides, and return all the
intermediate artifacts so callers can inspect structure as well as results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..dataflow.graph import DataflowGraph
from ..dataflow.interpreter import DataflowResult, run_graph
from ..gamma.engine import ExecutionResult, run as run_gamma
from ..gamma.program import GammaProgram
from ..multiset.multiset import Multiset
from .df_to_gamma import DataflowToGammaResult, dataflow_to_gamma
from .equivalence import EquivalenceReport, check_dataflow_vs_gamma, check_gamma_vs_dataflow
from .gamma_to_df import ReactionGraph, program_to_graphs
from .instancing import DataflowEmulationResult, execute_via_dataflow

__all__ = ["RoundTripArtifacts", "roundtrip_dataflow", "roundtrip_gamma"]


@dataclass
class RoundTripArtifacts:
    """Everything produced by a round-trip run, for inspection and reporting."""

    #: the starting object (a graph or a program), kept for reference
    source: object
    conversion: Optional[DataflowToGammaResult] = None
    reaction_graphs: Dict[str, ReactionGraph] = field(default_factory=dict)
    dataflow_result: Optional[DataflowResult] = None
    gamma_result: Optional[ExecutionResult] = None
    emulation_result: Optional[DataflowEmulationResult] = None
    report: Optional[EquivalenceReport] = None

    @property
    def equivalent(self) -> bool:
        return bool(self.report) and self.report.passed


def roundtrip_dataflow(
    graph: DataflowGraph,
    root_values: Optional[Dict[str, object]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    engines: Sequence[str] = ("sequential", "chaotic", "parallel"),
) -> RoundTripArtifacts:
    """dataflow → Gamma → dataflow, with equivalence verdicts at every hop.

    Produces: the Algorithm 1 conversion, per-reaction graphs from Algorithm 2,
    the original graph's interpreter result, the Gamma engine result of the
    converted program, the dataflow emulation of the converted program, and
    the combined equivalence report.
    """
    artifacts = RoundTripArtifacts(source=graph)
    artifacts.dataflow_result = run_graph(graph, root_values=root_values)
    artifacts.conversion = dataflow_to_gamma(graph, root_values=root_values)
    artifacts.gamma_result = run_gamma(artifacts.conversion.program, engine="sequential")
    artifacts.reaction_graphs = program_to_graphs(artifacts.conversion.program)
    artifacts.emulation_result = execute_via_dataflow(
        artifacts.conversion.program, artifacts.conversion.initial, seed=seeds[0]
    )

    report = check_dataflow_vs_gamma(
        graph, engines=engines, seeds=seeds, root_values=root_values,
        conversion=artifacts.conversion,
    )
    # Append the closing leg (converted program executed purely through
    # replicated dataflow instances) to the same report.
    expected = artifacts.dataflow_result.outputs_as_multiset()
    for seed in seeds:
        emulated = execute_via_dataflow(
            artifacts.conversion.program, artifacts.conversion.initial, seed=seed
        )
        actual = emulated.final.restrict_labels(artifacts.conversion.output_labels)
        report.add(f"roundtrip[seed={seed}]", expected, actual)
    artifacts.report = report
    return artifacts


def roundtrip_gamma(
    program: GammaProgram,
    initial: Optional[Multiset] = None,
    seeds: Sequence[int] = (0, 1, 2),
    labels: Optional[Sequence[str]] = None,
) -> RoundTripArtifacts:
    """Gamma → dataflow (Algorithm 2 + instancing) with an equivalence verdict."""
    artifacts = RoundTripArtifacts(source=program)
    artifacts.gamma_result = run_gamma(program, initial, engine="sequential")
    artifacts.reaction_graphs = program_to_graphs(program)
    artifacts.emulation_result = execute_via_dataflow(program, initial, seed=seeds[0])
    artifacts.report = check_gamma_vs_dataflow(program, initial, seeds=seeds, labels=labels)
    return artifacts
