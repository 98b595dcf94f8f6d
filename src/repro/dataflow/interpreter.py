"""Firing-rule interpreter for dynamic dataflow graphs.

The interpreter implements the execution model of §II-A of the paper:

* root vertices inject their value once, as a token with tag 0;
* a vertex fires as soon as all of its input ports hold tokens carrying the
  same tag (the dynamic dataflow matching rule);
* firing consumes the matched tokens, computes the vertex's outputs and sends
  one token per outgoing edge (inctag vertices increment the tag of the tokens
  they emit);
* execution terminates when no vertex can fire;
* tokens sent on dangling edges are the program's outputs.

The interpreter is *sequential* (one firing at a time) but accepts a firing
policy — ``"fifo"``, ``"lifo"`` or ``"random"`` — so tests can check that the
final outputs do not depend on the firing order (the dataflow counterpart of
Gamma's scheduler independence).  Parallelism measurements are the job of the
multi-PE simulator in :mod:`repro.runtime.df_simulator`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..multiset.element import Element
from ..multiset.multiset import Multiset
from .compiled_ops import CompiledGraphOps
from .graph import DataflowGraph
from .matching import ReadyEntry, TokenStore
from .token import INITIAL_TAG, Token

__all__ = [
    "FiringEvent", "DataflowResult", "DataflowInterpreter", "DataflowDeadlockError",
    "run_graph",
]

DEFAULT_MAX_FIRINGS = 1_000_000

#: One logged firing: ``(node_id, tag, inputs, produced)``.
LogEntry = Tuple[str, int, Dict[str, Any], Dict[str, Any]]

#: A reuse signature: node plus its sorted input items, tag excluded.
Signature = Tuple[str, Tuple[Tuple[str, Any], ...]]


class DataflowDeadlockError(RuntimeError):
    """Raised when the firing budget is exhausted before the graph drains."""


def _signature(node_id: str, inputs: Mapping[str, Any]) -> Signature:
    return (node_id, tuple(sorted(inputs.items())))


@dataclass(frozen=True)
class FiringEvent:
    """A record of one vertex firing."""

    index: int
    node_id: str
    kind: str
    tag: int
    inputs: Dict[str, Any]
    outputs: Dict[str, Any]

    def signature(self) -> Signature:
        """Reuse signature: node plus input values, tag excluded (see DF-DTM)."""
        return _signature(self.node_id, self.inputs)


@dataclass
class DataflowResult:
    """Outcome of draining a dataflow graph.

    The run loop records a flat ``log`` — one ``(node_id, tag, inputs,
    produced)`` tuple per firing, roots first — and :attr:`firings`
    materializes :class:`FiringEvent` objects from it on first read, each
    with its own copies of the two dicts.  :meth:`firing_counts`,
    :meth:`reuse_statistics` and :meth:`signatures` read the log directly.
    ``kinds`` maps node ids to node kinds.  Runs with ``record_events=False``
    leave the log empty.
    """

    outputs: Dict[str, List[Token]]
    total_firings: int
    log: List[LogEntry] = field(default_factory=list, repr=False)
    kinds: Mapping[str, str] = field(default_factory=dict, repr=False)
    drained: bool = True

    @cached_property
    def firings(self) -> List[FiringEvent]:
        """One :class:`FiringEvent` per logged firing, in firing order."""
        kinds = self.kinds
        return [
            FiringEvent(
                index=index,
                node_id=node_id,
                kind=kinds[node_id],
                tag=tag,
                inputs=dict(inputs),
                outputs=dict(produced),
            )
            for index, (node_id, tag, inputs, produced) in enumerate(self.log)
        ]

    def output_values(self, label: str) -> List[Any]:
        """Values of the tokens that reached output edge ``label``."""
        return [t.value for t in self.outputs.get(label, [])]

    def single_output(self, label: str) -> Any:
        """The unique token value on ``label`` (raises if 0 or >1 tokens arrived)."""
        tokens = self.outputs.get(label, [])
        if len(tokens) != 1:
            raise ValueError(f"expected exactly one token on {label!r}, got {len(tokens)}")
        return tokens[0].value

    def outputs_as_multiset(self) -> Multiset:
        """Output tokens as a multiset of ``[value, label, tag]`` elements.

        This is the observable the equivalence checker compares against the
        stable Gamma multiset restricted to the same labels.
        """
        elements = []
        for label, tokens in self.outputs.items():
            for token in tokens:
                elements.append(Element(value=token.value, label=label, tag=token.tag))
        return Multiset(elements)

    def firing_counts(self) -> Dict[str, int]:
        """Node id -> number of firings."""
        counts: Dict[str, int] = {}
        for entry in self.log:
            counts[entry[0]] = counts.get(entry[0], 0) + 1
        return counts

    def signatures(self, include_roots: bool = True) -> List[Signature]:
        """:meth:`FiringEvent.signature` of every logged firing, in order."""
        kinds = self.kinds
        return [
            _signature(node_id, inputs)
            for node_id, _tag, inputs, _produced in self.log
            if include_roots or kinds[node_id] != "root"
        ]

    def reuse_statistics(self) -> Dict[str, int]:
        """Trace-reuse statistics (same contract as :meth:`Trace.reuse_statistics`)."""
        signatures = self.signatures()
        unique = len(set(signatures))
        total = len(signatures)
        return {"total": total, "unique": unique, "reusable": total - unique}


def _picker(policy: str, rng: random.Random) -> Callable[[Set[ReadyEntry]], ReadyEntry]:
    """The entry a policy fires next, chosen from the live ready set.

    ``fifo`` / ``lifo`` take the first / last entry of the sorted ready list
    (``min`` / ``max`` need no sort); ``random`` draws an index into the
    sorted list, so a seed replays the same schedule.
    """
    if policy == "fifo":
        return min
    if policy == "lifo":
        return max

    def pick_random(ready: Set[ReadyEntry]) -> ReadyEntry:
        entries = sorted(ready)
        return entries[rng.randrange(len(entries))]

    return pick_random


class DataflowInterpreter:
    """Sequential tagged-token interpreter."""

    def __init__(
        self,
        graph: DataflowGraph,
        policy: str = "fifo",
        seed: Optional[int] = None,
        max_firings: int = DEFAULT_MAX_FIRINGS,
        record_events: bool = True,
        compiled: bool = True,
    ) -> None:
        if policy not in ("fifo", "lifo", "random"):
            raise ValueError(f"unknown firing policy {policy!r}")
        if max_firings <= 0:
            raise ValueError(f"max_firings must be positive, got {max_firings!r}")
        self.graph = graph
        self.policy = policy
        self.max_firings = max_firings
        self.record_events = record_events
        self.compiled = compiled
        # Kernel, emit-route and tag tables, built once per interpreter:
        # firing then costs a few dict lookups instead of method dispatch and
        # a fresh out-edge list per emit.  ``compiled=False`` fires through
        # ``node.compute`` over the same tables.
        self._ops = CompiledGraphOps(graph, compiled=compiled)
        self._rng = random.Random(seed)

    # -- overridable hooks ---------------------------------------------------------
    def root_values(self) -> Dict[str, Any]:
        """Value injected by each root node (override to re-run with new inputs)."""
        return {node.node_id: node.value for node in self.graph.roots()}

    # -- execution -------------------------------------------------------------------
    def run(self, root_values: Optional[Dict[str, Any]] = None) -> DataflowResult:
        """Drain the graph and return its outputs.

        ``root_values`` optionally overrides the values injected by root
        vertices (keyed by node id), which lets the same graph be executed on
        many inputs — the equivalence experiments sweep inputs this way.
        """
        graph = self.graph
        ops = self._ops
        values = dict(self.root_values())
        if root_values:
            unknown = set(root_values) - {n.node_id for n in graph.roots()}
            if unknown:
                raise ValueError(f"root_values for unknown roots: {sorted(unknown)}")
            values.update(root_values)

        store = TokenStore(graph)
        outputs: Dict[str, List[Token]] = {e.label: [] for e in graph.output_edges()}
        send = ops.sender(store, outputs)
        log: List[LogEntry] = []
        record = log.append if self.record_events else None

        total = 0
        # Inject the initial tokens produced by root vertices.
        for root in graph.roots():
            produced = {"out": values[root.node_id]}
            send(root.node_id, produced, INITIAL_TAG)
            if record is not None:
                record((root.node_id, INITIAL_TAG, {}, produced))
            total += 1

        ready = store.ready_set
        take = store.take
        pick = _picker(self.policy, self._rng)
        kernels = ops.kernels
        tag_delta = ops.tag_delta
        max_firings = self.max_firings
        while ready:
            if total >= max_firings:
                raise DataflowDeadlockError(
                    f"exceeded {max_firings} firings on graph {graph.name!r}"
                )
            key = pick(ready)
            inputs = take(key)
            node_id, tag = key
            produced = kernels[node_id](inputs)
            send(node_id, produced, tag + tag_delta[node_id])
            if record is not None:
                record((node_id, tag, inputs, produced))
            total += 1

        return DataflowResult(outputs=outputs, total_firings=total, log=log, kinds=ops.kind)


def run_graph(
    graph: DataflowGraph,
    root_values: Optional[Dict[str, Any]] = None,
    policy: str = "fifo",
    seed: Optional[int] = None,
    max_firings: int = DEFAULT_MAX_FIRINGS,
    compiled: bool = True,
) -> DataflowResult:
    """Convenience wrapper: drain ``graph`` with a fresh interpreter."""
    interpreter = DataflowInterpreter(
        graph, policy=policy, seed=seed, max_firings=max_firings, compiled=compiled
    )
    return interpreter.run(root_values)
