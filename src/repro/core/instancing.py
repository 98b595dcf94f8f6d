"""Step 2 of the Gamma-to-dataflow conversion: mapping the multiset onto graph instances.

Figure 4 of the paper shows a reaction graph replicated three times so that
every element of a six-element initial multiset is connected to a root of some
instance.  This module implements that mapping and the iterative driver the
paper describes ("the produced elements have to be connected to the dataflow
graph until the reactions finish their processing"):

* :func:`instantiate_round` takes one superstep of disjoint reaction matches
  in the current multiset (the ``(tuple, k)`` decisions of
  :meth:`~repro.gamma.scheduler.ReactionScheduler.collect_superstep_matches`)
  and builds one dataflow graph containing one instance of the corresponding
  reaction graph per *firing* — a decision of multiplicity k is k instances,
  since each instance consumes one copy of its tuple — exactly the
  replication of Fig. 4;
* :func:`execute_via_dataflow` repeats such rounds, running each combined
  graph with the dataflow interpreter and feeding the produced elements back
  into the multiset, until no reaction matches.  Its final multiset equals the
  stable state computed by the native Gamma engines (experiment E5 checks this
  mechanically).

The driver takes values from the dataflow execution and labels/tags from the
reaction templates evaluated under the match binding, which is the same
division of labour the paper uses (the graph computes, the multiset carries
the tagged data between rounds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..dataflow.graph import DataflowGraph
from ..dataflow.interpreter import DataflowInterpreter, DataflowResult
from ..gamma.matching import Match
from ..gamma.program import GammaProgram
from ..gamma.scheduler import greedy_disjoint_matches
from ..multiset.element import Element
from ..multiset.multiset import Multiset
from .gamma_to_df import ReactionGraph, program_to_graphs

__all__ = [
    "InstanceInfo",
    "InstancedGraph",
    "DataflowEmulationResult",
    "instantiate_round",
    "instantiate_over_multiset",
    "execute_via_dataflow",
]


@dataclass(frozen=True)
class InstanceInfo:
    """One replicated reaction-graph instance and the match that fills its roots.

    ``match.times`` is always 1: an instance is one firing.
    """

    prefix: str
    reaction_name: str
    match: Match


@dataclass
class InstancedGraph:
    """A combined graph holding one instance per disjoint firing (Fig. 4)."""

    graph: DataflowGraph
    instances: List[InstanceInfo]
    #: Elements of the multiset not covered by any instance this round.
    leftover: Multiset

    @property
    def num_instances(self) -> int:
        return len(self.instances)


@dataclass
class DataflowEmulationResult:
    """Outcome of emulating a whole Gamma execution through dataflow rounds."""

    final: Multiset
    rounds: int
    total_instances: int
    total_firings: int
    round_graphs: List[InstancedGraph] = field(default_factory=list)

    def values_with_label(self, label: str) -> List:
        return self.final.values_with_label(label)


def instantiate_round(
    program: GammaProgram,
    multiset: Multiset,
    graphs: Optional[Dict[str, ReactionGraph]] = None,
    rng: Optional[random.Random] = None,
) -> Optional[InstancedGraph]:
    """Build the Fig. 4 replication for one round, or ``None`` if nothing matches."""
    graphs = graphs if graphs is not None else program_to_graphs(program)
    decisions = greedy_disjoint_matches(program.reactions, multiset, rng=rng)
    if not decisions:
        return None
    combined = DataflowGraph(name=f"instanced({program.name})")
    instances: List[InstanceInfo] = []
    consumed_total = Multiset()
    for decision in decisions:
        match = replace(decision, times=1)
        reaction_graph = graphs[match.reaction.name]
        values = [element.value for element in match.consumed]
        for _ in range(decision.times):
            prefix = f"i{len(instances)}_"
            instance = reaction_graph.instantiate(values, prefix)
            for node in instance.nodes:
                combined.add_node(node)
            for edge in instance.edges:
                combined.add_edge(
                    edge.src, edge.dst, edge.label,
                    src_port=edge.src_port, dst_port=edge.dst_port,
                )
            instances.append(
                InstanceInfo(prefix=prefix, reaction_name=match.reaction.name, match=match)
            )
            for element in match.consumed:
                consumed_total.add(element)
    leftover = multiset - consumed_total
    return InstancedGraph(graph=combined, instances=instances, leftover=leftover)


# Backwards-compatible name used in DESIGN.md / examples.
instantiate_over_multiset = instantiate_round


def _round_outputs(
    instanced: InstancedGraph, result: DataflowResult, graphs: Dict[str, ReactionGraph]
) -> List[Element]:
    """Convert the tokens of one round into the elements added to the multiset.

    Values come from the dataflow execution; labels and tags come from the
    production templates evaluated under the match binding (the bookkeeping
    the multiset carries between rounds).
    """
    produced: List[Element] = []
    for info in instanced.instances:
        binding = dict(info.match.binding)
        reaction_graph = graphs[info.reaction_name]
        for edge_label in reaction_graph.output_labels:
            tokens = result.outputs.get(f"{info.prefix}{edge_label}", [])
            if not tokens:
                continue
            template = reaction_graph.templates[edge_label]
            label = reaction_graph.output_map[edge_label]
            tag = int(template.tag.evaluate(binding))
            for token in tokens:
                produced.append(Element(value=token.value, label=label, tag=tag))
    return produced


def execute_via_dataflow(
    program: GammaProgram,
    initial: Optional[Multiset] = None,
    max_rounds: int = 100_000,
    seed: Optional[int] = None,
    keep_graphs: bool = False,
    recognize_idioms: bool = True,
) -> DataflowEmulationResult:
    """Run ``program`` to its stable state using only dataflow-graph execution.

    Every round: convert (cached), replicate over the current multiset,
    execute the combined graph with the tagged-token interpreter, and replace
    the consumed elements by the produced ones.  Terminates when no reaction
    matches — the same stopping condition as Eq. 1.
    """
    multiset = (initial if initial is not None else program.initial)
    if multiset is None:
        raise ValueError("an initial multiset is required")
    multiset = multiset.copy()
    graphs = program_to_graphs(program, recognize_idioms=recognize_idioms)
    rng = random.Random(seed) if seed is not None else None
    rounds = 0
    total_instances = 0
    total_firings = 0
    kept: List[InstancedGraph] = []

    while rounds < max_rounds:
        instanced = instantiate_round(program, multiset, graphs=graphs, rng=rng)
        if instanced is None:
            break
        interpreter = DataflowInterpreter(instanced.graph, record_events=False)
        result = interpreter.run()
        produced = _round_outputs(instanced, result, graphs)
        # Eq. 1, M := (M - consumed) + produced, as a fresh multiset: its
        # label and tag key orders are then those of a from-scratch rebuild,
        # the candidate order the next round's seeded instancing draws from.
        multiset = instanced.leftover + Multiset(produced)
        rounds += 1
        total_instances += instanced.num_instances
        total_firings += result.total_firings
        if keep_graphs:
            kept.append(instanced)
    else:
        raise RuntimeError(f"execute_via_dataflow exceeded {max_rounds} rounds")

    return DataflowEmulationResult(
        final=multiset,
        rounds=rounds,
        total_instances=total_instances,
        total_firings=total_firings,
        round_graphs=kept,
    )
