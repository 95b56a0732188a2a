"""The edge-pair-centric computation engine (§4.2-§4.3)."""

from repro.engine.checkpoint import (
    CheckpointError,
    RunJournal,
    grammar_fingerprint,
    graph_fingerprint,
)
from repro.engine.engine import (
    GraspanComputation,
    GraspanEngine,
    align_graph_labels,
)
from repro.engine.join import CsrView, apply_unary_closure, join_edges
from repro.engine.matmul import MatmulJoinBackend, scipy_available
from repro.engine.naive import naive_closure
from repro.engine.parallel import (
    BACKENDS,
    JoinBackend,
    JoinTelemetry,
    ProcessJoinBackend,
    SerialJoinBackend,
    ThreadJoinBackend,
    make_backend,
    shared_memory_available,
)
from repro.engine.pipeline import IoPipeline, PendingCommit
from repro.engine.scheduler import PairScheduler, RoundRobinScheduler, Scheduler
from repro.engine.session import (
    ClosureSession,
    SessionStateError,
    record_added_edges,
)
from repro.engine.stats import EngineStats, SuperstepRecord
from repro.engine.store import ClosureStore, edge_diff, seed_delta_edges
from repro.engine.superstep import SuperstepResult, run_superstep

__all__ = [
    "CheckpointError",
    "RunJournal",
    "grammar_fingerprint",
    "graph_fingerprint",
    "GraspanComputation",
    "GraspanEngine",
    "align_graph_labels",
    "CsrView",
    "apply_unary_closure",
    "join_edges",
    "naive_closure",
    "BACKENDS",
    "JoinBackend",
    "JoinTelemetry",
    "MatmulJoinBackend",
    "scipy_available",
    "ProcessJoinBackend",
    "SerialJoinBackend",
    "ThreadJoinBackend",
    "make_backend",
    "shared_memory_available",
    "IoPipeline",
    "PendingCommit",
    "ClosureSession",
    "SessionStateError",
    "record_added_edges",
    "ClosureStore",
    "edge_diff",
    "seed_delta_edges",
    "Scheduler",
    "PairScheduler",
    "RoundRobinScheduler",
    "EngineStats",
    "SuperstepRecord",
    "SuperstepResult",
    "run_superstep",
]
