"""Simulated master-slave cluster: its shape, network model, metrics, executors.

:class:`SimulatedCluster` is the run's frozen shape (machine count,
network, seed, clock, slowdowns); an :class:`Executor` built on it is the
one object that runs, meters and prices every per-machine step and keeps
the run's :class:`RunMetrics`.
"""

from .cluster import SimulatedCluster, split_count
from .executor import (
    EXECUTORS,
    BroadcastPhase,
    Executor,
    GatherPhase,
    GeneratePhase,
    GenerationOutcome,
    MachineFailure,
    MapPhase,
    MasterPhase,
    MultiprocessingExecutor,
    PhaseResult,
    SimulatedExecutor,
    WorkerBackedExecutor,
    executor_scope,
    make_executor,
)
from .faults import (
    DEFAULT_RETRY,
    DISCONNECT,
    FAILURE_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    FaultToleranceExceeded,
    PhaseTimeoutError,
    RetryPolicy,
)
from .metrics import (
    COMMUNICATION,
    COMPUTATION,
    GENERATION,
    PhaseRecord,
    RecoveryEvent,
    RunMetrics,
)
from .network import NetworkModel, gigabit_cluster, shared_memory_server
from .socket_executor import SocketExecutor, serve_worker
from .spec import (
    ExecutorSpec,
    MultiprocessingSpec,
    SimulatedSpec,
    SocketSpec,
    as_spec,
    spec_summary,
)
from .tracing import (
    render_timeline,
    summarize_phases,
    summarize_recovery,
    summarize_rounds,
)

__all__ = [
    "SimulatedCluster",
    "split_count",
    "MachineFailure",
    "NetworkModel",
    "gigabit_cluster",
    "shared_memory_server",
    "RunMetrics",
    "PhaseRecord",
    "RecoveryEvent",
    "GENERATION",
    "COMPUTATION",
    "COMMUNICATION",
    "Executor",
    "SimulatedExecutor",
    "MultiprocessingExecutor",
    "SocketExecutor",
    "WorkerBackedExecutor",
    "serve_worker",
    "GeneratePhase",
    "MapPhase",
    "GatherPhase",
    "BroadcastPhase",
    "MasterPhase",
    "PhaseResult",
    "EXECUTORS",
    "ExecutorSpec",
    "SimulatedSpec",
    "MultiprocessingSpec",
    "SocketSpec",
    "as_spec",
    "spec_summary",
    "make_executor",
    "executor_scope",
    "GenerationOutcome",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
    "FAILURE_KINDS",
    "DISCONNECT",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "PhaseTimeoutError",
    "FaultToleranceExceeded",
    "summarize_phases",
    "summarize_rounds",
    "summarize_recovery",
    "render_timeline",
]
