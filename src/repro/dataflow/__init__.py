"""The dynamic dataflow model: graphs, tagged tokens, interpreter and tooling."""

from .builder import GraphBuilder, OutputRef
from .compiled_ops import CompiledGraphOps, compile_node
from .graph import DataflowGraph, Edge, GraphError
from .interpreter import (
    DataflowDeadlockError,
    DataflowInterpreter,
    DataflowResult,
    FiringEvent,
    run_graph,
)
from .matching import TokenStore
from .nodes import (
    ArithmeticNode,
    ComparisonNode,
    CopyNode,
    IncTagNode,
    Node,
    OperatorNode,
    RootNode,
    SteerNode,
)
from .token import INITIAL_TAG, Token
from .validate import ValidationIssue, ValidationReport, validate_graph

__all__ = [
    "Token", "INITIAL_TAG",
    "Node", "RootNode", "OperatorNode", "ArithmeticNode", "ComparisonNode",
    "SteerNode", "IncTagNode", "CopyNode",
    "DataflowGraph", "Edge", "GraphError",
    "GraphBuilder", "OutputRef",
    "TokenStore",
    "DataflowInterpreter", "DataflowResult", "FiringEvent", "DataflowDeadlockError",
    "run_graph",
    "CompiledGraphOps", "compile_node",
    "validate_graph", "ValidationReport", "ValidationIssue",
]
