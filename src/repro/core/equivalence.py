"""Mechanical equivalence checking between the two computational models.

The paper argues the equivalence of dynamic dataflow and Gamma by construction
(Algorithm 1 / Algorithm 2 plus a sketch of proof).  This module turns the
argument into an executable check used throughout the tests and benchmarks:

* :func:`check_dataflow_vs_gamma` — run a dataflow graph with the tagged-token
  interpreter, convert it with Algorithm 1, run the resulting Gamma program
  with one or more engines/seeds, and compare the observable results (tokens
  that reached output edges vs. the stable multiset restricted to the same
  labels);
* :func:`check_gamma_vs_dataflow` — run a Gamma program natively and through
  the dataflow emulation of Algorithm 2 + Fig. 4 instancing, and compare the
  stable multisets;
* :func:`check_roundtrip` — compose both directions (dataflow → Gamma →
  dataflow) and compare against the original graph's results.

All checkers return an :class:`EquivalenceReport` carrying per-run outcomes so
failures are diagnosable (which engine, which seed, what differed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..dataflow.graph import DataflowGraph
from ..dataflow.interpreter import run_graph
from ..gamma.engine import run as run_gamma
from ..gamma.program import GammaProgram
from ..multiset.multiset import Multiset
from .df_to_gamma import DataflowToGammaResult, dataflow_to_gamma
from .instancing import execute_via_dataflow

__all__ = [
    "CheckOutcome",
    "EquivalenceReport",
    "check_dataflow_vs_gamma",
    "check_gamma_vs_dataflow",
    "check_roundtrip",
]

DEFAULT_ENGINES: Tuple[str, ...] = ("sequential", "chaotic", "parallel")
DEFAULT_SEEDS: Tuple[int, ...] = (0, 1, 2)


@dataclass(frozen=True)
class CheckOutcome:
    """One comparison: a configuration, the two observed results, the verdict."""

    name: str
    passed: bool
    expected: Tuple
    actual: Tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "ok" if self.passed else "MISMATCH"
        return f"{self.name}: {status}"


@dataclass
class EquivalenceReport:
    """Aggregate verdict over a collection of comparisons."""

    subject: str
    outcomes: List[CheckOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    @property
    def failures(self) -> List[CheckOutcome]:
        return [o for o in self.outcomes if not o.passed]

    def add(self, name: str, expected: Multiset, actual: Multiset) -> CheckOutcome:
        outcome = CheckOutcome(
            name=name,
            passed=expected == actual,
            expected=tuple(expected.to_tuples()),
            actual=tuple(actual.to_tuples()),
        )
        self.outcomes.append(outcome)
        return outcome

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "EQUIVALENT" if self.passed else "NOT EQUIVALENT"
        return (
            f"{self.subject}: {status} "
            f"({len(self.outcomes) - len(self.failures)}/{len(self.outcomes)} checks passed)"
        )

    def __bool__(self) -> bool:
        return self.passed


def check_dataflow_vs_gamma(
    graph: DataflowGraph,
    engines: Sequence[str] = DEFAULT_ENGINES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    root_values: Optional[Dict[str, object]] = None,
    conversion: Optional[DataflowToGammaResult] = None,
) -> EquivalenceReport:
    """Experiment E1/E2-style check: dataflow execution vs. its Algorithm 1 conversion.

    The observable compared is the multiset of ``[value, label, tag]`` triples
    on the graph's output edges, against the stable Gamma multiset restricted
    to the same labels.
    """
    from ..api import RuntimeConfig

    report = EquivalenceReport(subject=f"dataflow→gamma({graph.name})")
    df_result = run_graph(graph, root_values=root_values)
    expected = df_result.outputs_as_multiset()

    conversion = conversion or dataflow_to_gamma(graph, root_values=root_values)
    output_labels = conversion.output_labels

    for engine in engines:
        engine_seeds: Iterable[Optional[int]] = seeds if engine != "sequential" else (None,)
        for seed in engine_seeds:
            result = run_gamma(
                conversion.program, config=RuntimeConfig(engine=engine, seed=seed)
            )
            actual = result.final.restrict_labels(output_labels)
            name = engine if seed is None else f"{engine}[seed={seed}]"
            report.add(name, expected, actual)
    return report


def check_gamma_vs_dataflow(
    program: GammaProgram,
    initial: Optional[Multiset] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    labels: Optional[Sequence[str]] = None,
    max_rounds: int = 100_000,
) -> EquivalenceReport:
    """Experiment E5-style check: native Gamma execution vs. the Algorithm 2 emulation.

    By default the *entire* stable multisets are compared; pass ``labels`` to
    restrict the comparison (useful for programs with confluent results but
    nondeterministic leftovers).
    """
    report = EquivalenceReport(subject=f"gamma→dataflow({program.name})")
    reference = run_gamma(program, initial, engine="sequential")
    expected = reference.final
    if labels is not None:
        expected = expected.restrict_labels(labels)
    for seed in seeds:
        emulated = execute_via_dataflow(program, initial, seed=seed, max_rounds=max_rounds)
        actual = emulated.final
        if labels is not None:
            actual = actual.restrict_labels(labels)
        report.add(f"dataflow-emulation[seed={seed}]", expected, actual)
    return report


def check_roundtrip(
    graph: DataflowGraph,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    root_values: Optional[Dict[str, object]] = None,
) -> EquivalenceReport:
    """Full round trip: dataflow → Gamma (Algorithm 1) → dataflow (Algorithm 2 + Fig. 4).

    The converted Gamma program is executed *only* through replicated dataflow
    graph instances; its stable outputs must equal the original graph's
    outputs.
    """
    report = EquivalenceReport(subject=f"roundtrip({graph.name})")
    df_result = run_graph(graph, root_values=root_values)
    expected = df_result.outputs_as_multiset()
    conversion = dataflow_to_gamma(graph, root_values=root_values)
    for seed in seeds:
        emulated = execute_via_dataflow(conversion.program, conversion.initial, seed=seed)
        actual = emulated.final.restrict_labels(conversion.output_labels)
        report.add(f"roundtrip[seed={seed}]", expected, actual)
    return report
