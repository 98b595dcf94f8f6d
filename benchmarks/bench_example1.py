"""Experiment E1 — Example 1 / Fig. 1: m = (x + y) - (k * j).

Regenerates the artifacts of Section III-A1, first example: the dataflow graph
(4 roots + 3 operators), the three reactions R1–R3 produced by Algorithm 1,
the initial multiset {[1,A1],[5,B1],[3,C1],[2,D1]}, and the result m = 0 under
both models.  Timings cover the dataflow interpreter, the three Gamma engines
and the conversion itself.
"""

import pytest

from _report import emit_report
from repro.analysis import format_table
from repro.core import check_dataflow_vs_gamma, dataflow_to_gamma
from repro.dataflow import run_graph
from repro.gamma import run as run_gamma
from repro.gamma.dsl import format_program
from repro.workloads.paper_examples import example1_expected_result, example1_graph
from repro.api import RuntimeConfig


@pytest.fixture(scope="module")
def graph():
    return example1_graph()


@pytest.fixture(scope="module")
def conversion(graph):
    return dataflow_to_gamma(graph)


def test_report_example1(benchmark, graph, conversion):
    """Structural rows of E1 plus the end-to-end equivalence check (timed)."""
    report = benchmark(lambda: check_dataflow_vs_gamma(graph, seeds=(0,)))
    assert report.passed

    df_result = run_graph(graph)
    rows = [
        ["dataflow vertices", len(graph)],
        ["dataflow operators", len(graph.operational_nodes())],
        ["reactions (paper: R1, R2, R3)", len(conversion.program)],
        ["initial multiset", str(conversion.initial.to_tuples())],
        ["dataflow result m", df_result.single_output("m")],
        ["gamma result m", run_gamma(conversion.program, config=RuntimeConfig(engine="sequential")).final.values_with_label("m")[0]],
        ["expected m", example1_expected_result()],
        ["equivalence checks passed", f"{len(report.outcomes)}/{len(report.outcomes)}"],
    ]
    text = format_table(["quantity", "value"], rows, title="E1: Example 1 (Fig. 1)")
    text += "\n\nGenerated Gamma code (Algorithm 1):\n" + format_program(conversion.program)
    emit_report("E1_example1", text)


def bench_conversion(graph):
    return dataflow_to_gamma(graph)


def test_bench_algorithm1_conversion(benchmark, graph):
    result = benchmark(bench_conversion, graph)
    assert len(result.program) == 3


def test_bench_dataflow_interpreter(benchmark, graph):
    result = benchmark(run_graph, graph)
    assert result.single_output("m") == 0


@pytest.mark.parametrize("engine", ["sequential", "chaotic", "parallel"])
def test_bench_gamma_engines(benchmark, conversion, engine):
    result = benchmark(lambda: run_gamma(conversion.program, config=RuntimeConfig(engine=engine, seed=0)))
    assert result.final.values_with_label("m") == [0]
