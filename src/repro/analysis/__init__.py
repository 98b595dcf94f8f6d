"""Analyses enabled by the dataflow/Gamma equivalence (paper §I and §IV)."""

from .granularity import (
    GranularityReport,
    compare_granularity,
    granularity_report,
    matching_probability,
)
from .memoization import (
    MemoizationCache,
    MemoizedRunResult,
    ReuseStatistics,
    reuse_from_dataflow,
    reuse_from_gamma,
    run_with_memoization,
)
from .parallelism import (
    ParallelismComparison,
    compare_parallelism,
    critical_path_length,
    dataflow_parallelism,
    gamma_parallelism,
    graph_width,
)
from .reaction_graph import (
    DependencyEdge,
    DependencyGraph,
    dependency_graph,
    flow_weights,
    hot_label_report,
    to_networkx,
)
from .report import format_dict, format_profile, format_table, section
from .sharding import (
    ShardLoadReport,
    communication_volume,
    shard_balance,
    shard_load_report,
)

__all__ = [
    "shard_balance", "communication_volume", "shard_load_report", "ShardLoadReport",
    "critical_path_length", "graph_width",
    "dataflow_parallelism", "gamma_parallelism",
    "compare_parallelism", "ParallelismComparison",
    "granularity_report", "compare_granularity", "matching_probability", "GranularityReport",
    "reuse_from_dataflow", "reuse_from_gamma", "run_with_memoization",
    "ReuseStatistics", "MemoizationCache", "MemoizedRunResult",
    "format_table", "format_profile", "format_dict", "section",
    "dependency_graph", "flow_weights", "hot_label_report", "to_networkx",
    "DependencyGraph", "DependencyEdge",
]
