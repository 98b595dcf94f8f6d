"""Discrete-step multi-PE simulator for dynamic dataflow graphs.

Unlike the sequential interpreter (one firing at a time, any order), the
simulator advances in *steps*: at each step every ready ``(node, tag)`` pair —
up to the number of processing elements — fires simultaneously, and the tokens
they emit become visible at the next step.  This is the execution discipline
of the dataflow runtimes the paper cites (§II-A) and it is what produces the
dataflow-side parallelism profiles and PE-count speedups of experiment E9.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..dataflow.compiled_ops import CompiledGraphOps
from ..dataflow.graph import DataflowGraph
from ..dataflow.matching import TokenStore
from ..dataflow.token import INITIAL_TAG, Token
from ..gamma.engine import NonTerminationError
from ..multiset.element import Element
from ..multiset.multiset import Multiset
from .metrics import ParallelRunMetrics
from .pe import PEPool

__all__ = ["DataflowSimulationResult", "DataflowSimulator", "simulate_graph"]

DEFAULT_MAX_STEPS = 1_000_000


@dataclass
class DataflowSimulationResult:
    """Outcome of one simulated parallel execution."""

    outputs: Dict[str, List[Token]]
    metrics: ParallelRunMetrics
    steps: int
    total_firings: int
    per_pe_load: List[int] = field(default_factory=list)

    def output_values(self, label: str) -> List[Any]:
        """Values of the tokens that reached output edge ``label``."""
        return [t.value for t in self.outputs.get(label, [])]

    def outputs_as_multiset(self) -> Multiset:
        """Output tokens as a multiset of ``[value, label, tag]`` elements."""
        elements = []
        for label, tokens in self.outputs.items():
            for token in tokens:
                elements.append(Element(value=token.value, label=label, tag=token.tag))
        return Multiset(elements)


class DataflowSimulator:
    """Step-synchronous multi-PE simulation of a dataflow graph."""

    def __init__(
        self,
        graph: DataflowGraph,
        num_pes: Optional[int] = None,
        seed: Optional[int] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        compiled: bool = True,
    ) -> None:
        if max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {max_steps!r}")
        self.graph = graph
        self.num_pes = num_pes
        self.max_steps = max_steps
        self.compiled = compiled
        # Same kernel/route tables as the sequential interpreter.
        self._ops = CompiledGraphOps(graph, compiled=compiled)
        self._rng = random.Random(seed)

    def run(self, root_values: Optional[Dict[str, Any]] = None) -> DataflowSimulationResult:
        """Drain the graph, firing ready nodes in synchronous parallel steps."""
        graph = self.graph
        ops = self._ops
        values = {node.node_id: node.value for node in graph.roots()}
        if root_values:
            unknown = set(root_values) - set(values)
            if unknown:
                raise ValueError(f"root_values for unknown roots: {sorted(unknown)}")
            values.update(root_values)

        store = TokenStore(graph)
        outputs: Dict[str, List[Token]] = {e.label: [] for e in graph.output_edges()}
        send = ops.sender(store, outputs)
        pool: PEPool = PEPool(self.num_pes)
        total_firings = 0

        # Root injection counts as step 0 work: all roots fire simultaneously,
        # exactly like the initial multiset is present "for free" on the Gamma side.
        for root in graph.roots():
            send(root.node_id, {"out": values[root.node_id]}, INITIAL_TAG)

        ready = store.ready_set
        take = store.take
        kernels = ops.kernels
        tag_delta = ops.tag_delta
        steps = 0
        while ready:
            if steps >= self.max_steps:
                # Same budget contract as the Gamma engines/simulator.
                raise NonTerminationError(f"simulation exceeded {self.max_steps} steps")
            entries = sorted(ready)
            self._rng.shuffle(entries)
            scheduled = pool.dispatch(entries)
            # Consume and fire all scheduled entries against the *current*
            # store state, then emit: a synchronous step.
            fired = []
            for key in scheduled:
                node_id, tag = key
                produced = kernels[node_id](take(key))
                fired.append((node_id, produced, tag + tag_delta[node_id]))
            for node_id, produced, out_tag in fired:
                send(node_id, produced, out_tag)
            total_firings += len(fired)
            steps += 1

        metrics = ParallelRunMetrics.from_profile(pool.profile, num_pes=self.num_pes)
        return DataflowSimulationResult(
            outputs=outputs,
            metrics=metrics,
            steps=steps,
            total_firings=total_firings,
            per_pe_load=pool.load_balance(),
        )


def simulate_graph(
    graph: DataflowGraph,
    num_pes: Optional[int] = None,
    seed: Optional[int] = None,
    root_values: Optional[Dict[str, Any]] = None,
) -> DataflowSimulationResult:
    """Convenience wrapper around :class:`DataflowSimulator`."""
    return DataflowSimulator(graph, num_pes=num_pes, seed=seed).run(root_values)
