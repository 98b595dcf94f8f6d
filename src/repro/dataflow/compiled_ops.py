"""Compiled node kernels and emit plans for dataflow execution.

The interpreter's inner loop pays a per-firing dispatch tax: every
``node.compute`` call rebuilds the operand tuple through ``operands()``,
re-reads the operator function out of a dict, and re-branches on the
immediate configuration; every ``_emit`` re-queries ``graph.out_edges`` (a
list copy per call).  A dataflow graph is static for the lifetime of a run,
so — exactly like the Gamma side's :mod:`repro.gamma.compiled` — all of that
dispatch is resolved once, at graph load:

* :func:`compile_node` turns each vertex into a **kernel**: a closure from
  the matched input mapping to the produced output mapping, with the
  operator function, immediate operand, port names and 0/1 encoding burnt
  in.  Kernels return exactly what ``node.compute`` returns (same dicts,
  same error messages), so firing events are indistinguishable from the
  interpreted path's.
* :class:`CompiledGraphOps` packages the kernel table with precomputed
  ``node -> port -> (consumer, port)`` routes (the emit plan) and the
  per-node tag deltas, and hands both run loops the same emit step
  (:meth:`CompiledGraphOps.sender`), so a firing does a few dict lookups
  where it used to do attribute dispatch plus list construction.

Node classes outside the taxonomy of :mod:`repro.dataflow.nodes` fall back
to their own ``compute`` method — the closure-composition analogue of the
Gamma compiler's fallback: unknown semantics are delegated, never guessed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .graph import DataflowGraph
from .nodes import (
    ARITHMETIC_FUNCTIONS,
    COMPARISON_FUNCTIONS,
    PORT_CONTROL,
    PORT_DATA,
    PORT_FALSE,
    PORT_IN,
    PORT_LEFT,
    PORT_OUT,
    PORT_RIGHT,
    PORT_TRUE,
    ArithmeticNode,
    ComparisonNode,
    CopyNode,
    IncTagNode,
    Node,
    OperatorNode,
    RootNode,
    SteerNode,
)
from .matching import TokenStore
from .token import Token

__all__ = ["CompiledGraphOps", "compile_node"]

#: A compiled node kernel: input-port mapping -> output-port mapping.
Kernel = Callable[[Mapping[str, Any]], Dict[str, Any]]

#: Where an emitted value goes: ``(dst node, dst port)``, or ``(None, label)``
#: for a dangling output edge.
Route = Tuple[Optional[str], str]


def _operator_kernel(node: OperatorNode, wrap_bool: bool) -> Kernel:
    """Kernel for arithmetic/comparison vertices with dispatch pre-resolved."""
    functions = ARITHMETIC_FUNCTIONS if not wrap_bool else COMPARISON_FUNCTIONS
    fn = functions[node.op]
    if node.immediate is None:
        if wrap_bool:
            def kernel(inputs: Mapping[str, Any]) -> Dict[str, Any]:
                return {PORT_OUT: 1 if fn(inputs[PORT_LEFT], inputs[PORT_RIGHT]) else 0}
        else:
            def kernel(inputs: Mapping[str, Any]) -> Dict[str, Any]:
                return {PORT_OUT: fn(inputs[PORT_LEFT], inputs[PORT_RIGHT])}
        return kernel
    side, value = node.immediate
    if side == "right":
        if wrap_bool:
            def kernel(inputs: Mapping[str, Any]) -> Dict[str, Any]:
                return {PORT_OUT: 1 if fn(inputs[PORT_IN], value) else 0}
        else:
            def kernel(inputs: Mapping[str, Any]) -> Dict[str, Any]:
                return {PORT_OUT: fn(inputs[PORT_IN], value)}
        return kernel
    if wrap_bool:
        def kernel(inputs: Mapping[str, Any]) -> Dict[str, Any]:
            return {PORT_OUT: 1 if fn(value, inputs[PORT_IN]) else 0}
    else:
        def kernel(inputs: Mapping[str, Any]) -> Dict[str, Any]:
            return {PORT_OUT: fn(value, inputs[PORT_IN])}
    return kernel


def _steer_kernel(node: SteerNode) -> Kernel:
    node_id = node.node_id

    def kernel(inputs: Mapping[str, Any]) -> Dict[str, Any]:
        control = inputs[PORT_CONTROL]
        if isinstance(control, bool):
            control = 1 if control else 0
        if control not in (0, 1):
            raise ValueError(
                f"steer {node_id!r} control token must be 0 or 1, got {control!r}"
            )
        port = PORT_TRUE if control == 1 else PORT_FALSE
        return {port: inputs[PORT_DATA]}

    return kernel


def compile_node(node: Node) -> Kernel:
    """Specialize ``node`` into a kernel equivalent to ``node.compute``.

    Unknown node classes (user extensions) fall back to the bound ``compute``
    method itself, so compilation never changes semantics.
    """
    if isinstance(node, RootNode):
        value = node.value
        return lambda inputs: {PORT_OUT: value}
    if isinstance(node, ComparisonNode):
        return _operator_kernel(node, wrap_bool=True)
    if isinstance(node, ArithmeticNode):
        return _operator_kernel(node, wrap_bool=False)
    if isinstance(node, SteerNode):
        return _steer_kernel(node)
    if isinstance(node, (IncTagNode, CopyNode)):
        return lambda inputs: {PORT_OUT: inputs[PORT_IN]}
    return node.compute


class CompiledGraphOps:
    """Per-graph execution tables shared by the interpreter and the multi-PE
    simulator.

    ``kernels[node_id]`` fires a vertex — a compiled kernel, or the node's
    own ``compute`` with ``compiled=False`` (the reference the kernels are
    checked against; everything else is the same table).
    ``tag_delta[node_id]`` is the iteration-tag shift and ``kind[node_id]``
    the node kind.  ``routes[node_id][port]`` is the precomputed emit
    adjacency as the run loops consume it: one ``(dst, dst_port)`` pair per
    outgoing edge, ``(None, label)`` for a dangling output edge.  Graphs are
    immutable during execution, so the tables are built once per run (or
    once per graph, when the caller keeps the ops object around).

    ``plain_tags`` is true when every tag delta is a non-negative int, so
    that tags, which start at 0, stay valid :class:`~repro.dataflow.Token`
    tags without a check per deposit.
    """

    __slots__ = ("graph", "kernels", "routes", "tag_delta", "kind", "plain_tags")

    def __init__(self, graph: DataflowGraph, compiled: bool = True) -> None:
        self.graph = graph
        nodes = graph.nodes
        self.kernels: Dict[str, Kernel] = {
            node.node_id: compile_node(node) if compiled else node.compute for node in nodes
        }
        self.tag_delta: Dict[str, int] = {node.node_id: node.tag_delta() for node in nodes}
        self.kind: Dict[str, str] = {node.node_id: node.kind for node in nodes}
        # One pass over the edges, in insertion order: the order
        # ``graph.out_edges`` lists them in.
        self.routes: Dict[str, Dict[str, List[Route]]] = {node.node_id: {} for node in nodes}
        for edge in graph.edges:
            route = (edge.dst, edge.label if edge.dst is None else edge.dst_port)
            self.routes[edge.src].setdefault(edge.src_port, []).append(route)
        self.plain_tags: bool = all(
            type(delta) is int and delta >= 0 for delta in self.tag_delta.values()
        )

    def sender(
        self, store: TokenStore, outputs: Dict[str, List[Token]]
    ) -> Callable[[str, Dict[str, Any], int], None]:
        """A run's emit step: ``send(node_id, produced, tag)`` delivers every
        produced value along its routes — into ``store`` for a consumer, as
        a :class:`~repro.dataflow.Token` appended to ``outputs[label]`` for a
        dangling edge.  Ports without routes drop their value (a steer's
        unconnected branch)."""
        routes = self.routes
        put = store.put if self.plain_tags else store.put_checked

        def send(node_id: str, produced: Dict[str, Any], tag: int) -> None:
            node_routes = routes[node_id]
            for port, value in produced.items():
                for dst, where in node_routes.get(port, ()):
                    if dst is None:
                        outputs[where].append(Token(value, tag))
                    else:
                        put(dst, where, value, tag)

        return send
