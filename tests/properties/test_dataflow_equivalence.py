"""Pinned dataflow executions: firing order, events, outputs and PE profiles.

The interpreter's waiting-matching store, firing log and run loop are
performance-critical, and their observable behaviour is part of the
reproduction's contract: the ``fifo`` / ``lifo`` / ``random`` policies fix
*which* ready ``(node, tag)`` pair fires next, and the Gamma equivalence
checks, the trace-reuse analysis and the E9 parallelism profiles all read the
resulting firing events.  This module pins, for the paper's two example
graphs, seeded random expression DAGs and every frontend-compiled loop
kernel:

* the full :class:`~repro.dataflow.FiringEvent` list (index, node, kind, tag,
  inputs and outputs, dict order included), the outputs (label and token
  order included) and ``total_firings`` of the sequential interpreter under
  each policy, with compiled kernels on and off;
* ``steps``, ``per_pe_load``, the step profile, outputs and
  ``total_firings`` of the multi-PE :class:`~repro.runtime.DataflowSimulator`.

Each run is reduced to a canonical tuple whose SHA-256 prefix is pinned
below; the values were recorded before the counted-readiness store and the
flat firing log replaced the rescanning store and eager event list.  Run
this file as a script to print the table for the current tree.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.analysis import reuse_from_dataflow
from repro.dataflow import DataflowGraph, DataflowInterpreter, TokenStore, Token, run_graph
from repro.runtime import DataflowSimulator
from repro.workloads import LOOP_KERNELS, ExpressionSpec, random_expression_graph
from repro.workloads.paper_examples import example1_graph, example2_graph

POLICIES = ("fifo", "lifo", "random")
RANDOM_SEED = 5
SIMULATOR_SEED = 3
PE_COUNTS = (None, 2)


def _dag(seed: int) -> Callable[[], DataflowGraph]:
    spec = ExpressionSpec(
        num_inputs=6, num_operations=30, ops=("+", "-", "*"), num_outputs=2, seed=seed
    )
    return lambda: random_expression_graph(spec)


GRAPHS: Dict[str, Callable[[], DataflowGraph]] = {
    "example1": example1_graph,
    "example2": example2_graph,
    "example2_z5": lambda: example2_graph(y=3, z=5, x=1),
    "dag0": _dag(0),
    "dag1": _dag(1),
    "dag2": _dag(2),
}
for _name, _kernel in sorted(LOOP_KERNELS.items()):
    GRAPHS[f"loop_{_name}"] = lambda _kernel=_kernel: _kernel().graph()


def _digest(canonical: Any) -> str:
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]


def _outputs(outputs) -> Tuple:
    return tuple(
        (label, tuple((token.value, token.tag) for token in tokens))
        for label, tokens in outputs.items()
    )


def _run_canonical(result) -> Tuple:
    events = tuple(
        (
            event.index,
            event.node_id,
            event.kind,
            event.tag,
            tuple(event.inputs.items()),
            tuple(event.outputs.items()),
        )
        for event in result.firings
    )
    return (events, _outputs(result.outputs), result.total_firings)


def _simulation_canonical(result) -> Tuple:
    return (
        result.steps,
        tuple(result.per_pe_load),
        tuple(result.metrics.profile),
        _outputs(result.outputs),
        result.total_firings,
    )


def _interpret(case: str, policy: str, compiled: bool):
    return run_graph(GRAPHS[case](), policy=policy, seed=RANDOM_SEED, compiled=compiled)


def _simulate(case: str, num_pes, compiled: bool):
    simulator = DataflowSimulator(
        GRAPHS[case](), num_pes=num_pes, seed=SIMULATOR_SEED, compiled=compiled
    )
    return simulator.run()


# (graph, policy) -> digest of (events, outputs, total_firings).
EXPECTED_RUNS: Dict[Tuple[str, str], str] = {
    ("dag0", "fifo"): "30414611a05e8222",
    ("dag0", "lifo"): "cf61bd228b1b8ec5",
    ("dag0", "random"): "d794e77f210b6cca",
    ("dag1", "fifo"): "72b6736b51b0d8d1",
    ("dag1", "lifo"): "3204169ea0b36cbf",
    ("dag1", "random"): "91e3dfe0ab23ab6f",
    ("dag2", "fifo"): "e64c0f76b8bc57c5",
    ("dag2", "lifo"): "43f4d72b2d3a94c0",
    ("dag2", "random"): "148da709c48e252d",
    ("example1", "fifo"): "c472f49398b1e09b",
    ("example1", "lifo"): "66576b3761e431cb",
    ("example1", "random"): "66576b3761e431cb",
    ("example2", "fifo"): "ee39600ae669e077",
    ("example2", "lifo"): "99e469dad0c05fbb",
    ("example2", "random"): "cab88f4e0f5c40c2",
    ("example2_z5", "fifo"): "4b27377fd9b3eac4",
    ("example2_z5", "lifo"): "45acce233916f9cb",
    ("example2_z5", "random"): "ac97b5fad3881dc5",
    ("loop_accumulation", "fifo"): "00bf02725149536c",
    ("loop_accumulation", "lifo"): "547c8536170ac658",
    ("loop_accumulation", "random"): "65aea3489d246360",
    ("loop_factorial", "fifo"): "a49c00ada05f8f9a",
    ("loop_factorial", "lifo"): "5c95f8f4b3c8c2d4",
    ("loop_factorial", "random"): "da79ea1e504957d8",
    ("loop_fibonacci", "fifo"): "687e08e5f7f2b77f",
    ("loop_fibonacci", "lifo"): "c3c932abaa73d34d",
    ("loop_fibonacci", "random"): "456648bf308d38c0",
    ("loop_gcd_loop", "fifo"): "a58a7fa6e710d151",
    ("loop_gcd_loop", "lifo"): "5efbc0553fd81833",
    ("loop_gcd_loop", "random"): "19633c18407d8b89",
    ("loop_triangular", "fifo"): "88818c00821c3d39",
    ("loop_triangular", "lifo"): "86b311e60100a80d",
    ("loop_triangular", "random"): "664fed0263472719",
}

# (graph, num_pes) -> digest of (steps, per_pe_load, profile, outputs, total).
EXPECTED_SIMULATIONS: Dict[Tuple[str, Any], str] = {
    ("dag0", None): "3e173a3fdeee766d",
    ("dag0", 2): "3243fe1662b351fc",
    ("dag1", None): "d7d3a585f905ac0e",
    ("dag1", 2): "da327bb123ac5d08",
    ("dag2", None): "5d4928127d41b4a1",
    ("dag2", 2): "5872e7d2fe572422",
    ("example1", None): "d9283b4e51790535",
    ("example1", 2): "d9283b4e51790535",
    ("example2", None): "f32fe2a82f14edac",
    ("example2", 2): "d35de6aaddaf9f7a",
    ("example2_z5", None): "948d9db323868ef4",
    ("example2_z5", 2): "08914161d0a31dda",
    ("loop_accumulation", None): "995bb63693d27855",
    ("loop_accumulation", 2): "bb878a38951139a8",
    ("loop_factorial", None): "97de564210b62d3e",
    ("loop_factorial", 2): "9da7db0843806967",
    ("loop_fibonacci", None): "d9d7ad733637b5c7",
    ("loop_fibonacci", 2): "c5e7bde04aaf7203",
    ("loop_gcd_loop", None): "86b2c66b18a852ad",
    ("loop_gcd_loop", 2): "eee44534ffae9d91",
    ("loop_triangular", None): "4a14446bb6be2e78",
    ("loop_triangular", 2): "e9c8336f965271e5",
}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", sorted(GRAPHS))
def test_interpreter_run_is_pinned(case, policy, compiled):
    result = _interpret(case, policy, compiled)
    assert _digest(_run_canonical(result)) == EXPECTED_RUNS[case, policy]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
@pytest.mark.parametrize("num_pes", PE_COUNTS, ids=["unbounded", "2pe"])
@pytest.mark.parametrize("case", sorted(GRAPHS))
def test_simulator_run_is_pinned(case, num_pes, compiled):
    result = _simulate(case, num_pes, compiled)
    assert _digest(_simulation_canonical(result)) == EXPECTED_SIMULATIONS[case, num_pes]


def test_example1_events_in_full():
    """A readable pin of the smallest case: roots in insertion order, then
    the fifo (smallest ``(node, tag)``) order of the three operators."""
    result = run_graph(example1_graph())
    events = [
        (e.index, e.node_id, e.kind, e.tag, e.inputs, e.outputs) for e in result.firings
    ]
    assert events == [
        (0, "x", "root", 0, {}, {"out": 1}),
        (1, "y", "root", 0, {}, {"out": 5}),
        (2, "k", "root", 0, {}, {"out": 3}),
        (3, "j", "root", 0, {}, {"out": 2}),
        (4, "R1", "arith", 0, {"a": 1, "b": 5}, {"out": 6}),
        (5, "R2", "arith", 0, {"a": 3, "b": 2}, {"out": 6}),
        (6, "R3", "arith", 0, {"a": 6, "b": 6}, {"out": 0}),
    ]
    assert result.total_firings == 7
    assert result.output_values("m") == [0]


@pytest.mark.parametrize("case", ["example2", "dag1", "loop_gcd_loop"])
def test_rereading_firings_gives_equal_events_with_their_own_dicts(case):
    result = run_graph(GRAPHS[case]())
    first = result.firings
    second = result.firings
    assert first == second
    assert len(first) == result.total_firings
    assert [e.index for e in first] == list(range(result.total_firings))
    dicts = [d for event in first for d in (event.inputs, event.outputs)]
    assert len({id(d) for d in dicts}) == len(dicts)
    # Events copy the log's dicts: editing one leaves the log-backed
    # aggregates alone.
    for event, (_node, _tag, inputs, produced) in zip(first, result.log):
        assert event.inputs is not inputs and event.outputs is not produced
    # A fresh run reproduces the same events (nothing is shared across runs).
    assert run_graph(GRAPHS[case]()).firings == first
    signatures = result.signatures()
    first[-1].inputs.clear()
    assert result.signatures() == signatures


@pytest.mark.parametrize("case", ["example2", "dag0", "loop_fibonacci"])
def test_aggregates_agree_with_the_events(case):
    result = run_graph(GRAPHS[case]())
    events = result.firings
    assert result.firing_counts() == dict(Counter(e.node_id for e in events))
    signatures = [e.signature() for e in events]
    assert result.reuse_statistics() == {
        "total": len(signatures),
        "unique": len(set(signatures)),
        "reusable": len(signatures) - len(set(signatures)),
    }
    operational = [e.signature() for e in events if e.kind != "root"]
    stats = reuse_from_dataflow(GRAPHS[case]())
    assert (stats.total, stats.unique) == (len(operational), len(set(operational)))


@pytest.mark.parametrize("case", ["example2", "dag2"])
def test_unrecorded_runs_match_recorded_ones(case):
    recorded = run_graph(GRAPHS[case]())
    quiet = DataflowInterpreter(GRAPHS[case](), record_events=False).run()
    assert quiet.firings == []
    assert quiet.total_firings == recorded.total_firings
    assert _outputs(quiet.outputs) == _outputs(recorded.outputs)


def test_token_store_surface():
    """Deposit/consume bookkeeping on a merged port, pinned literally."""
    graph = example1_graph()
    store = TokenStore(graph)
    store.deposit("R1", "a", Token(1, 0))
    store.deposit("R1", "a", Token(2, 0))
    store.deposit("R1", "a", Token(7, 1))
    assert not store.has_ready()
    assert store.ready() == []
    store.deposit("R3", "b", Token(9, 0))
    store.deposit("R1", "b", Token(10, 0))
    store.deposit("R2", "a", Token(3, 4))
    store.deposit("R2", "b", Token(4, 4))
    assert store.ready() == [("R1", 0), ("R2", 4)]
    assert store.is_ready("R1", 0) and not store.is_ready("R1", 1)
    assert store.pending_tokens() == 7
    assert store.waiting_tags("R1") == [0, 1]
    assert store.consume("R1", 0) == {"a": 1, "b": 10}
    # ``a`` still queues a value, ``b`` emptied: not ready any more,
    # and the emptied port stays in the snapshot until the entry drains.
    assert store.ready() == [("R2", 4)]
    assert store.snapshot() == {
        ("R1", 0): {"a": [2], "b": []},
        ("R1", 1): {"a": [7]},
        ("R3", 0): {"b": [9]},
        ("R2", 4): {"a": [3], "b": [4]},
    }
    assert list(store.snapshot()) == [("R1", 0), ("R1", 1), ("R3", 0), ("R2", 4)]
    store.deposit("R1", "b", Token(11, 0))
    assert store.ready() == [("R1", 0), ("R2", 4)]
    assert store.consume("R1", 0) == {"a": 2, "b": 11}
    assert store.consume("R2", 4) == {"a": 3, "b": 4}
    assert store.snapshot() == {("R1", 1): {"a": [7]}, ("R3", 0): {"b": [9]}}
    assert store.pending_tokens() == 2
    assert not store.has_ready()
    with pytest.raises(KeyError):
        store.consume("R1", 1)
    with pytest.raises(ValueError):
        store.deposit("R1", "nope", Token(1, 0))


if __name__ == "__main__":  # pragma: no cover - regenerates the tables above
    print("EXPECTED_RUNS = {")
    for case in sorted(GRAPHS):
        for policy in POLICIES:
            digests = {_digest(_run_canonical(_interpret(case, policy, c))) for c in (True, False)}
            assert len(digests) == 1, (case, policy, digests)
            print(f"    ({case!r}, {policy!r}): {digests.pop()!r},")
    print("}")
    print("EXPECTED_SIMULATIONS = {")
    for case in sorted(GRAPHS):
        for num_pes in PE_COUNTS:
            digests = {
                _digest(_simulation_canonical(_simulate(case, num_pes, c))) for c in (True, False)
            }
            assert len(digests) == 1, (case, num_pes, digests)
            print(f"    ({case!r}, {num_pes!r}): {digests.pop()!r},")
    print("}")
