"""Parallel and distributed runtimes for both computational models.

* :class:`DataflowSimulator` — step-synchronous multi-PE execution of dataflow graphs,
* :class:`GammaSimulator` — step-synchronous PE-bounded parallel Gamma execution,
* :class:`DistributedGammaRuntime` — partitioned distributed multiset execution
  on the sharded subsystem (``backend="inprocess"`` (default) /
  ``"multiprocessing"`` / ``"network"``),
* :class:`ShardCoordinator` — direct access to the sharded protocol
  (:mod:`repro.runtime.sharding`),
* :class:`StreamingGammaRuntime` — online execution: continuous element
  injection into a live run on any backend
  (:mod:`repro.runtime.streaming`),
* :class:`ElasticityPolicy` — online elasticity for the sharded runtimes:
  label-group migration between shards and shard split/merge/autoscale at
  superstep barriers (:mod:`repro.runtime.elasticity`),
* :class:`RecoveryManager` — fault tolerance for the sharded runtimes:
  epoch checkpoints, an ingest write-ahead log, and rollback recovery from
  worker death (:mod:`repro.runtime.recovery`), exercised by the seeded
  fault-injection harness in :mod:`repro.runtime.faults`,
* :class:`PEPool` / :class:`ParallelRunMetrics` — the shared cost model.

Every name above is imported from its submodule on first access (PEP 562),
so importing one submodule — a shard server imports only
:mod:`repro.runtime.net.server` — does not load the others.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".df_simulator": (
        "DataflowSimulationResult", "DataflowSimulator", "simulate_graph",
    ),
    ".distributed": ("DistributedGammaRuntime", "DistributedRunResult"),
    ".elasticity": ("ElasticityDecision", "ElasticityPlan", "ElasticityPolicy"),
    ".faults": ("FaultEvent", "FaultInjector", "FaultSchedule", "install_faults"),
    ".gamma_simulator": (
        "GammaSimulationResult", "GammaSimulator", "simulate_program",
    ),
    ".metrics": ("ParallelRunMetrics", "speedup_curve"),
    ".pe": ("PEPool", "ProcessingElement"),
    ".recovery": (
        "Checkpoint", "CheckpointStore", "DiskCheckpointStore",
        "DiskWriteAheadLog", "MemoryCheckpointStore", "MemoryWriteAheadLog",
        "RecoveryManager", "WALRecord", "WorkerDied", "WriteAheadLog",
    ),
    ".net": ("FrameError", "GatewayClient", "IngestGateway", "NetworkBackend"),
    ".sharding": ("ShardCoordinator", "ShardedRunResult"),
    ".streaming": (
        "EpochReport", "IngestQueue", "StreamingGammaRuntime", "StreamRunResult",
    ),
})

__all__ = [
    "DataflowSimulator", "DataflowSimulationResult", "simulate_graph",
    "GammaSimulator", "GammaSimulationResult", "simulate_program",
    "DistributedGammaRuntime", "DistributedRunResult",
    "ShardCoordinator", "ShardedRunResult",
    "StreamingGammaRuntime", "StreamRunResult", "EpochReport", "IngestQueue",
    "ElasticityPolicy", "ElasticityPlan", "ElasticityDecision",
    "RecoveryManager", "WorkerDied", "Checkpoint", "CheckpointStore",
    "MemoryCheckpointStore", "DiskCheckpointStore",
    "WriteAheadLog", "MemoryWriteAheadLog", "DiskWriteAheadLog", "WALRecord",
    "FaultSchedule", "FaultEvent", "FaultInjector", "install_faults",
    "NetworkBackend", "IngestGateway", "GatewayClient", "FrameError",
    "ParallelRunMetrics", "speedup_curve",
    "PEPool", "ProcessingElement",
]
