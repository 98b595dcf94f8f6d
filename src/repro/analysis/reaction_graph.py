"""Reaction dependency graphs from program structure and execution traces.

The signalling-pathway literature studies reaction networks as weighted
graphs; this module rebuilds that view from the Gamma side, with no graph
library required (a :func:`to_networkx` export is available when networkx
happens to be installed, but nothing here imports it at module level):

* :func:`dependency_graph` — the *static* graph: an edge ``u -> v`` whenever
  some label reaction ``u`` can produce is a label reaction ``v`` consumes,
  i.e. ``v`` may become enabled by a firing of ``u``.  This is the
  footprint-overlap relation the routing table's union-find works from, so
  the graph's connected components mirror the shard routing groups.
* :func:`flow_weights` — the *dynamic* refinement: from a recorded trace,
  an upper bound on how many elements flowed from ``u`` firings into ``v``
  firings (``sum over labels of min(produced_by_u, consumed_by_v)``).  It
  is an upper bound, not an exact account — element identity is not tracked
  through the multiset, so two producers of one label split the credit
  pessimistically.
* :func:`hot_label_report` — per-label consumption/production totals of a
  trace, sorted hottest first: the report that tells a benchmark *which*
  labels concentrate the load (and therefore which routing groups a
  placement must spread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..gamma.program import GammaProgram
from ..gamma.tracer import Trace

__all__ = [
    "DependencyEdge",
    "DependencyGraph",
    "dependency_graph",
    "flow_weights",
    "hot_label_report",
    "to_networkx",
]

#: Label marker for wildcard dependencies (variable-label pattern or
#: non-constant production label): the overlap cannot be named statically.
WILDCARD = "*"


@dataclass(frozen=True)
class DependencyEdge:
    """One may-enable edge: ``producer`` firings can feed ``consumer``."""

    producer: str
    consumer: str
    #: Labels carrying the dependency; contains :data:`WILDCARD` when the
    #: overlap comes from a variable label rather than a named one.
    labels: FrozenSet[str]


@dataclass(frozen=True)
class DependencyGraph:
    """The static may-enable relation between a program's reactions."""

    nodes: Tuple[str, ...]
    edges: Tuple[DependencyEdge, ...]

    def successors(self, reaction: str) -> List[str]:
        """Reactions that may become enabled by a firing of ``reaction``."""
        return [edge.consumer for edge in self.edges if edge.producer == reaction]

    def predecessors(self, reaction: str) -> List[str]:
        """Reactions whose firings may enable ``reaction``."""
        return [edge.producer for edge in self.edges if edge.consumer == reaction]


def _has_variable_production(reaction: Any) -> bool:
    """True when some production's label is not a compile-time constant."""
    from ..gamma.expr import Const

    return any(
        not isinstance(production.label, Const)
        for branch in reaction.branches
        for production in branch.productions
    )


def dependency_graph(program: GammaProgram) -> DependencyGraph:
    """The label-overlap dependency graph of a program.

    Self-edges are included (a reaction whose products it can itself consume
    keeps re-enabling itself — the shape behind divergent translations).
    Variable labels are handled conservatively: a consumer with a
    variable-label pattern depends on every producer, and a producer with a
    non-constant production label feeds every consumer; such edges carry the
    :data:`WILDCARD` marker in their label set.
    """
    edges: List[DependencyEdge] = []
    for producer in program.reactions:
        produced = producer.produced_labels()
        wildcard_producer = _has_variable_production(producer)
        for consumer in program.reactions:
            shared = set(produced & consumer.consumed_labels())
            if consumer.has_variable_label() and (produced or wildcard_producer):
                shared |= produced  # a variable label matches any produced one
                shared.add(WILDCARD)
            elif wildcard_producer and consumer.consumed_labels():
                shared.add(WILDCARD)
            if shared:
                edges.append(
                    DependencyEdge(
                        producer=producer.name,
                        consumer=consumer.name,
                        labels=frozenset(shared),
                    )
                )
    return DependencyGraph(
        nodes=tuple(reaction.name for reaction in program.reactions),
        edges=tuple(edges),
    )


def _label_totals(trace: Trace) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Dict[str, int]]]:
    """Per-reaction ``{label: count}`` totals: (produced, consumed)."""
    produced: Dict[str, Dict[str, int]] = {}
    consumed: Dict[str, Dict[str, int]] = {}
    for firing in trace.firings():
        by_reaction = produced.setdefault(firing.reaction, {})
        for element in firing.produced:
            by_reaction[element.label] = by_reaction.get(element.label, 0) + firing.times
        by_reaction = consumed.setdefault(firing.reaction, {})
        for element in firing.consumed:
            by_reaction[element.label] = by_reaction.get(element.label, 0) + firing.times
    return produced, consumed


def flow_weights(trace: Trace) -> Dict[Tuple[str, str], int]:
    """Upper-bound element flow between reaction pairs of a recorded run.

    For each ordered pair ``(u, v)`` the weight is
    ``sum over labels of min(elements of that label u produced, elements v
    consumed)`` — an *upper bound* on actual flow, since multiset elements
    are anonymous and several producers of one label split the same credit.
    Pairs with zero weight are omitted.
    """
    produced, consumed = _label_totals(trace)
    weights: Dict[Tuple[str, str], int] = {}
    for source, source_produced in produced.items():
        for target, target_consumed in consumed.items():
            weight = sum(
                min(count, target_consumed.get(label, 0))
                for label, count in source_produced.items()
            )
            if weight:
                weights[(source, target)] = weight
    return weights


def hot_label_report(trace: Trace, top: Optional[int] = None) -> List[Tuple[str, int, int]]:
    """Per-label ``(label, consumed, produced)`` totals, hottest first.

    Sorted by combined traffic descending (label name breaks ties for
    determinism); ``top`` truncates to the hottest entries.
    """
    consumed: Dict[str, int] = {}
    produced: Dict[str, int] = {}
    for firing in trace.firings():
        for element in firing.consumed:
            consumed[element.label] = consumed.get(element.label, 0) + firing.times
        for element in firing.produced:
            produced[element.label] = produced.get(element.label, 0) + firing.times
    labels = sorted(
        set(consumed) | set(produced),
        key=lambda label: (-(consumed.get(label, 0) + produced.get(label, 0)), label),
    )
    report = [
        (label, consumed.get(label, 0), produced.get(label, 0)) for label in labels
    ]
    return report[:top] if top is not None else report


def to_networkx(graph: DependencyGraph, trace: Optional[Trace] = None) -> Any:
    """Export a dependency graph as a ``networkx.DiGraph`` (optional extra).

    Edge attributes: ``labels`` (sorted list) and — when a trace is given —
    ``weight`` from :func:`flow_weights`.  Raises ``ImportError`` with a
    clear message when networkx is not installed; nothing else in this
    module needs it.
    """
    try:
        import networkx
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise ImportError(
            "to_networkx requires the optional networkx package; the rest of "
            "repro.analysis.reaction_graph works without it"
        ) from exc
    weights = flow_weights(trace) if trace is not None else {}
    digraph = networkx.DiGraph()
    digraph.add_nodes_from(graph.nodes)
    for edge in graph.edges:
        attributes: Dict[str, Any] = {"labels": sorted(edge.labels)}
        if trace is not None:
            attributes["weight"] = weights.get((edge.producer, edge.consumer), 0)
        digraph.add_edge(edge.producer, edge.consumer, **attributes)
    return digraph
