"""Differential closure checking: the engine vs the Datalog oracle.

One :class:`FuzzCase` is closed twice — by the semi-naive Datalog engine
(:mod:`repro.baselines.datalog`, the independent semantics) and by the
Graspan engine under every :class:`EngineConfig` in the matrix (backend
× pipeline × memory budget × cold/resume).  Three properties are
enforced per case:

* **oracle equality** — the engine's closure, as a set of
  ``(src, dst, label)`` facts, equals the Datalog fixpoint;
* **config byte-identity** — every configuration produces the same
  canonical ``(src, keys)`` arrays (the repo-wide byte-identity
  invariant, here checked across the whole matrix at once);
* **fault survival** — re-run composed with a seeded
  :class:`~repro.util.faults.FaultPlan`, the case must either complete
  (transient errnos absorbed by the retry policy), resume byte-identical
  after an injected crash, or *detect* injected corruption loudly —
  never return a wrong closure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.baselines.datalog import run_datalog
from repro.engine.engine import GraspanEngine, align_graph_labels
from repro.fuzz.cases import FuzzCase
from repro.partition.storage import PartitionCorruptError
from repro.util.faults import FaultInjector, FaultPlan, InjectedCrash

Fact = Tuple[int, int, int]


@dataclass(frozen=True)
class EngineConfig:
    """One point of the engine configuration matrix."""

    name: str
    #: ``None`` -> the engine default (matmul with scipy, else serial).
    backend: Optional[str] = None
    num_threads: int = 1
    pipeline: Optional[bool] = False
    memory_budget: Optional[int] = None
    #: ``None`` derives a size that forces several partitions.
    max_edges_per_partition: Optional[int] = None
    #: Crash after the first manifest commit, then resume — exercises the
    #: checkpoint/restore path on every single case.
    resume: bool = False

    def describe(self) -> str:
        bits = [self.backend or "default"]
        if self.pipeline:
            bits.append("pipeline")
        if self.memory_budget is not None:
            bits.append(f"budget={self.memory_budget}")
        if self.resume:
            bits.append("crash+resume")
        return "+".join(bits)


#: The default matrix: the serial edge-pair reference (named explicitly —
#: the engine default is matmul when scipy is installed), threaded
#: pipelined, the sparse matmul kernel, and a budgeted crash/resume
#: configuration on the serial join, whose budget cuts joins into
#: batches (matmul joins are never batched).
DEFAULT_CONFIGS: Tuple[EngineConfig, ...] = (
    EngineConfig("serial", backend="serial"),
    EngineConfig("thread-pipeline", backend="thread", num_threads=2, pipeline=True),
    EngineConfig("matmul", backend="matmul"),
    EngineConfig(
        "budget-resume", backend="serial", memory_budget=256 * 1024, resume=True
    ),
)

#: The widened matrix for the CLI / CI sweep: adds the process pool, a
#: degenerate-partition configuration (every partition near-minimal),
#: and the coordinator/worker lease protocol with two in-process workers
#: (``workers`` defaults to ``num_threads`` for the distributed tier).
FULL_CONFIGS: Tuple[EngineConfig, ...] = DEFAULT_CONFIGS + (
    EngineConfig("process", backend="process", num_threads=2),
    EngineConfig("degenerate-partitions", max_edges_per_partition=2),
    EngineConfig("distributed-2w", backend="distributed", num_threads=2),
)


class DifferentialMismatch(AssertionError):
    """The engine and the oracle (or two configs) disagree on a closure."""

    def __init__(
        self,
        case: FuzzCase,
        config: EngineConfig,
        message: str,
        missing: FrozenSet[Fact] = frozenset(),
        extra: FrozenSet[Fact] = frozenset(),
    ) -> None:
        detail = message
        if missing:
            detail += f"; {len(missing)} oracle facts missing from the engine"
        if extra:
            detail += f"; {len(extra)} engine facts unknown to the oracle"
        super().__init__(f"[{case.name} / {config.name}] {detail}")
        self.case = case
        self.config = config
        self.missing = missing
        self.extra = extra


@dataclass
class RunOutcome:
    """One engine run of one case under one config."""

    status: str  # "ok" | "corruption-detected"
    facts: Optional[FrozenSet[Fact]] = None
    src: Optional[np.ndarray] = None
    keys: Optional[np.ndarray] = None
    supersteps: int = 0
    resumed: bool = False
    detail: str = ""


def oracle_closure(case: FuzzCase) -> FrozenSet[Fact]:
    """The Datalog fixpoint of the case, as grammar-interned facts."""
    graph = align_graph_labels(case.graph, case.grammar)
    result = run_datalog(
        graph,
        case.grammar,
        memory_budget_bytes=1 << 30,
        time_budget_seconds=600.0,
    )
    if result.status != "ok":
        raise RuntimeError(
            f"oracle did not finish on {case.name}: {result.status}"
        )
    return frozenset(
        (x, y, case.grammar.label_id(rel))
        for rel, pairs in result.relations.items()
        for x, y in pairs
    )


def _derived_max_edges(case: FuzzCase, config: EngineConfig) -> int:
    if config.max_edges_per_partition is not None:
        return config.max_edges_per_partition
    # Several partitions even on small graphs, so the out-of-core paths
    # (scheduler, residency, checkpoints) all genuinely execute.
    return max(4, case.graph.num_edges // 3)


def _make_engine(
    case: FuzzCase,
    config: EngineConfig,
    workdir: Path,
    injector: Optional[FaultInjector] = None,
) -> GraspanEngine:
    return GraspanEngine(
        case.grammar,
        max_edges_per_partition=_derived_max_edges(case, config),
        workdir=workdir,
        num_threads=config.num_threads,
        parallel_backend=config.backend,
        memory_budget=config.memory_budget,
        pipeline=config.pipeline,
        checkpoint=True,
        fault_injector=injector,
    )


def run_config(
    case: FuzzCase,
    config: EngineConfig,
    workdir: Path,
    fault_plan: Optional[FaultPlan] = None,
) -> RunOutcome:
    """Run ``case`` under ``config``; compose ``fault_plan`` if given.

    Crashes (planned by the config's ``resume`` leg or by the fault
    plan) are resumed with a clean engine over the same workdir; the
    resulting closure is the outcome.  Injected corruption that is
    *detected* (:class:`PartitionCorruptError`) is a legitimate outcome
    — returning a wrong closure is the only failure.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    graph = align_graph_labels(case.graph, case.grammar)

    plan = fault_plan if fault_plan is not None else FaultPlan()
    if config.resume:
        # Crash right after the post-preprocess commit: the resumed run
        # replays every superstep from the committed watermark.
        plan = replace(plan, crash_after_commit=1)
    injector = FaultInjector(plan) if not plan.empty() else None

    resumed = False
    detail = ""
    try:
        computation = _make_engine(case, config, workdir, injector).run(graph)
    except InjectedCrash as crash:
        detail = f"crashed ({crash}), resumed"
        try:
            computation = _make_engine(case, config, workdir).run(
                graph, resume=True
            )
        except PartitionCorruptError as exc:
            if fault_plan is not None and fault_plan.flip_byte_at_write:
                return RunOutcome(
                    status="corruption-detected", detail=str(exc)
                )
            raise
        resumed = computation.stats.resumed_from_superstep is not None
    except PartitionCorruptError as exc:
        if fault_plan is not None and fault_plan.flip_byte_at_write:
            return RunOutcome(status="corruption-detected", detail=str(exc))
        raise

    try:
        closure = computation.to_memgraph()
        facts = frozenset(computation.pset.iter_all_edges())
    except PartitionCorruptError as exc:
        # A flipped partition that no superstep re-read surfaces only
        # when the closure is read back — still a loud detection.
        if fault_plan is not None and fault_plan.flip_byte_at_write:
            return RunOutcome(status="corruption-detected", detail=str(exc))
        raise
    return RunOutcome(
        status="ok",
        facts=facts,
        src=np.asarray(closure.src).copy(),
        keys=np.asarray(closure.keys).copy(),
        supersteps=computation.stats.num_supersteps,
        resumed=resumed,
        detail=detail,
    )


def check_case(
    case: FuzzCase,
    configs: Tuple[EngineConfig, ...],
    workroot: Path,
    oracle: Optional[FrozenSet[Fact]] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Dict[str, RunOutcome]:
    """Differentially check one case across the whole config matrix.

    Raises :class:`DifferentialMismatch` on the first disagreement.
    Returns the per-config outcomes (for reporting) on success.
    """
    if oracle is None:
        oracle = oracle_closure(case)
    outcomes: Dict[str, RunOutcome] = {}
    reference: Optional[RunOutcome] = None
    for config in configs:
        outcome = run_config(
            case, config, workroot / config.name, fault_plan=fault_plan
        )
        outcomes[config.name] = outcome
        if outcome.status == "corruption-detected":
            continue
        assert outcome.facts is not None
        if outcome.facts != oracle:
            raise DifferentialMismatch(
                case,
                config,
                "engine closure differs from the Datalog oracle",
                missing=oracle - outcome.facts,
                extra=outcome.facts - oracle,
            )
        if reference is None:
            reference = outcome
        elif not (
            np.array_equal(reference.src, outcome.src)
            and np.array_equal(reference.keys, outcome.keys)
        ):
            raise DifferentialMismatch(
                case,
                config,
                "closure is not byte-identical to the first configuration",
            )
    return outcomes
