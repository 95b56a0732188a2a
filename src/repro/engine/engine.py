"""The Graspan engine: out-of-core, edge-pair-centric DTC computation.

:class:`GraspanEngine` is the *configuration* layer (§4): grammar,
partition sizing, residency budget, backend and durability policy.  The
run machinery itself — ingest, the superstep loop, checkpoint/pipeline
wiring, lifecycle — lives in :class:`repro.engine.session.ClosureSession`
(DESIGN.md §14); :meth:`GraspanEngine.run` is a thin one-shot wrapper
that opens a session, drives it to the fixed point, and closes it.  The
result object exposes the paper's reporting APIs — iterate edges with a
given label (e.g. ``objectFlow`` for a points-to solution) — plus the
statistics behind Tables 5-6 and Figure 4.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.engine.parallel import BACKENDS
from repro.engine.scheduler import Scheduler
from repro.engine.stats import EngineStats
from repro.graph import packed
from repro.graph.graph import MemGraph
from repro.grammar.grammar import FrozenGrammar
from repro.partition.pset import PartitionSet
from repro.util.faults import FaultInjector
from repro.util.memory import MemoryBudgetExceeded
from repro.util.retry import RetryPolicy

PathLike = Union[str, Path]


class GraspanComputation:
    """The finished computation: final graph, stats, and reporting APIs."""

    def __init__(
        self, pset: PartitionSet, grammar: FrozenGrammar, stats: EngineStats
    ) -> None:
        self.pset = pset
        self.grammar = grammar
        self.stats = stats

    def load_resident(self) -> "GraspanComputation":
        """Pull every partition into memory so results outlive the workdir.

        Out-of-core runs leave the final partitions on disk; call this
        before the working directory is deleted if you want to keep
        querying the computation.  Returns self for chaining.

        Respects the set's memory budget: if the whole closure does not
        fit, :class:`~repro.util.memory.MemoryBudgetExceeded` is raised
        instead of silently blowing past the limit (the total is known
        from the slots' remembered sizes, so nothing is read first).
        Loaded partitions stay clean — they match their disk copies, so
        a later eviction pays no write-back.
        """
        budget = self.pset.memory_budget
        if budget is not None:
            total = self.pset.total_bytes()
            if total > budget:
                raise MemoryBudgetExceeded(total, budget)
        for pid in range(self.pset.num_partitions):
            self.pset.acquire(pid)
        return self

    def iter_edges_with_label(self, label: "int | str") -> Iterator[Tuple[int, int]]:
        """Deprecated: iterate ``(src, dst)`` pairs carrying ``label`` (§4.4).

        Use :meth:`edges_with_label_arrays` — the vectorized form this
        wrapper now delegates to.  Kept only so old notebooks keep
        running; emits :class:`DeprecationWarning`.
        """
        warnings.warn(
            "iter_edges_with_label is deprecated; use "
            "edges_with_label_arrays for parallel (src, dst) arrays",
            DeprecationWarning,
            stacklevel=2,
        )
        src, dst = self.edges_with_label_arrays(label)
        return iter(zip(src.tolist(), dst.tolist()))

    def edges_with_label_arrays(self, label: "int | str") -> Tuple[np.ndarray, np.ndarray]:
        """All ``(src, dst)`` pairs of edges carrying ``label``, as arrays.

        For the pointer analysis, label ``OF`` yields the points-to
        solution and ``AL`` the alias pairs.  One mask per partition over
        the flat key array — no per-vertex iteration.
        """
        if isinstance(label, str):
            label = self.grammar.label_id(label)
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for pid in range(self.pset.num_partitions):
            was_resident = self.pset.is_resident(pid)
            partition = self.pset.acquire(pid)
            mask = packed.labels_of(partition.keys) == label
            if mask.any():
                flat_src = np.repeat(partition.vertices, partition.row_lengths())
                src_parts.append(flat_src[mask])
                dst_parts.append(packed.targets_of(partition.keys[mask]))
            if not was_resident and self.pset.memory_budget is None:
                self.pset.evict(pid)
        if not src_parts:
            return packed.EMPTY, packed.EMPTY
        return np.concatenate(src_parts), np.concatenate(dst_parts)

    def count_by_label(self) -> Dict[str, int]:
        """Edge counts per label name, via one bincount per partition."""
        totals = np.zeros(self.grammar.num_labels, dtype=np.int64)
        for pid in range(self.pset.num_partitions):
            was_resident = self.pset.is_resident(pid)
            partition = self.pset.acquire(pid)
            if partition.num_edges:
                totals += np.bincount(
                    packed.labels_of(partition.keys),
                    minlength=self.grammar.num_labels,
                )
            if not was_resident and self.pset.memory_budget is None:
                self.pset.evict(pid)
        return {
            self.grammar.label_name(i): int(n)
            for i, n in enumerate(totals)
            if n
        }

    def to_memgraph(self) -> MemGraph:
        return self.pset.to_memgraph()

    @property
    def num_edges(self) -> int:
        return self.pset.total_edges()


class GraspanEngine:
    """Configure once, run on any number of graphs.

    Parameters
    ----------
    grammar:
        The frozen analysis grammar.
    max_edges_per_partition:
        Partition size threshold; drives the initial partition count,
        the repartitioning trigger and the mid-superstep limit.  It sets
        the *grain* of residency and scheduling, not how much is loaded
        at once — that is the memory budget's job (each superstep loads
        as many partitions as the budget holds, DESIGN.md §18).
        ``None`` means "fit in memory": two partitions, no
        repartitioning — the paper's in-memory mode.
    workdir:
        Directory for partition files.  ``None`` keeps all partitions
        resident (only sensible with small graphs).
    num_threads:
        Workers for the parallel join (the paper used 8) — threads for
        the ``thread`` backend, processes for ``process``.
    parallel_backend:
        Which join data plane to use: ``"serial"``, ``"thread"``,
        ``"process"`` (shared-memory worker pool, the only one that
        escapes the GIL), or ``"matmul"`` (per-label boolean sparse
        matrix products, DESIGN.md §11 — the fastest superstep compute).
        ``None`` picks ``matmul`` whenever scipy is installed, whatever
        ``num_threads`` is; without scipy it picks ``thread`` when
        ``num_threads > 1``, else ``serial``.  The pool is created once
        per :meth:`run` and reused across supersteps; ``process`` falls
        back to ``thread`` when shared memory is unavailable and an
        explicit ``matmul`` falls back to ``serial``, with a warning,
        when scipy is not installed.  ``"distributed"`` (DESIGN.md §16)
        fans the pair schedule out over ``num_threads``
        coordinator-leased worker threads sharing only the workdir's
        partition files — it requires a ``workdir``.  Every backend
        produces the byte-identical closure.
    memory_budget:
        Resident-partition byte budget (requires ``workdir``).  It also
        sets how wide a superstep is: the scheduler loads the best DDM
        pair plus further dirty partitions while their bytes and one
        partition of headroom fit, the mid-superstep limit stops the
        set's growth at what the budget can still hold, and edge-pair
        joins run in batches sized from it (``superstep.budget_limits``,
        DESIGN.md §18).  The loaded set is pinned; everything else is
        evicted least-recently-used whenever the total resident CSR
        bytes would exceed the budget, so peak residency never
        overshoots by more than one partition.  ``None`` (the default)
        loads every dirty partition each superstep and evicts everything
        else.
    checkpoint:
        Write a superstep-granular run journal + manifest so a crashed
        run can continue via ``run(graph, resume=True)`` (DESIGN.md §9).
        ``None`` (the default) auto-enables checkpointing whenever a
        ``workdir`` is set; ``True`` requires one; ``False`` disables it.
    pipeline:
        Overlap disk I/O with compute (DESIGN.md §10): a background I/O
        thread speculatively prefetches the members of the scheduler's
        predicted next pair that the budget still has room for while the
        current superstep computes, and dirty partitions
        are flushed asynchronously with the checkpoint commit lagging
        one superstep (the flush → commit → purge ordering is
        preserved, so crash/resume semantics are unchanged).  ``None``
        (the default) auto-enables the pipeline whenever a ``workdir``
        is set; ``True`` requires one; ``False`` forces the sequential
        load/compute/flush loop.  The closure is byte-identical either
        way — only the wall-clock interleaving changes.
    fault_injector:
        A :class:`repro.util.faults.FaultInjector` threaded through the
        partition store, the run journal, and the process join backend —
        the deterministic crash/corruption test hook.  ``None`` in
        production.
    retry:
        :class:`repro.util.retry.RetryPolicy` for transient store I/O
        errors; defaults to 3 attempts with exponential backoff.
    distributed:
        Options for the ``"distributed"`` backend (ignored otherwise):
        ``workers`` (lease-worker count, default ``num_threads``),
        ``lease_timeout`` (seconds before an unrenewed lease is
        reissued, default 30), ``max_inflight`` (cap on concurrent
        leases), ``worker_backend``/``worker_threads`` (the join
        backend each worker runs locally; unset, the same default as
        ``parallel_backend=None``), and
        ``worker_memory_budget`` (per-worker residency budget in
        bytes, default the engine's ``memory_budget``).
    """

    def __init__(
        self,
        grammar: FrozenGrammar,
        max_edges_per_partition: Optional[int] = None,
        num_partitions: Optional[int] = None,
        workdir: Optional[PathLike] = None,
        num_threads: int = 1,
        scheduler: Optional[Scheduler] = None,
        max_supersteps: int = 1_000_000,
        repartition_growth: float = 2.0,
        parallel_backend: Optional[str] = None,
        memory_budget: Optional[int] = None,
        checkpoint: Optional[bool] = None,
        pipeline: Optional[bool] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        distributed: Optional[Dict[str, object]] = None,
    ) -> None:
        if parallel_backend is not None and parallel_backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel_backend {parallel_backend!r}; "
                f"choose from {BACKENDS}"
            )
        if parallel_backend == "distributed" and workdir is None:
            raise ValueError(
                "the distributed backend requires a workdir: coordinator "
                "and workers share nothing but the partition files in it"
            )
        if memory_budget is not None:
            if memory_budget <= 0:
                raise ValueError("memory_budget must be positive")
            if workdir is None:
                raise ValueError(
                    "memory_budget requires a workdir: without disk backing "
                    "there is nowhere to evict partitions to"
                )
        if checkpoint and workdir is None:
            raise ValueError(
                "checkpoint requires a workdir: the journal and manifest "
                "live in the partition store directory"
            )
        if pipeline and workdir is None:
            raise ValueError(
                "pipeline requires a workdir: without disk backing there "
                "is no I/O to overlap with compute"
            )
        self.grammar = grammar
        self.max_edges_per_partition = max_edges_per_partition
        self.num_partitions = num_partitions
        self.workdir = workdir
        self.num_threads = num_threads
        self.parallel_backend = parallel_backend
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.max_supersteps = max_supersteps
        self.repartition_growth = repartition_growth
        self.memory_budget = memory_budget
        self.checkpoint = checkpoint
        self.pipeline = pipeline
        self.fault_injector = fault_injector
        self.retry = retry
        self.distributed = dict(distributed) if distributed else {}

    # ------------------------------------------------------------------
    def session(self, graph: MemGraph, resume: bool = False, **kwargs):
        """A new :class:`~repro.engine.session.ClosureSession` over ``graph``.

        The engine object carries only configuration and may back any
        number of concurrent sessions; pass ``scheduler=Scheduler()`` in
        ``kwargs`` when sessions run concurrently so each gets private
        scheduling state.
        """
        from repro.engine.session import ClosureSession

        return ClosureSession(self, graph, resume=resume, **kwargs)

    def run(self, graph: MemGraph, resume: bool = False) -> GraspanComputation:
        """Compute the grammar-guided transitive closure of ``graph``.

        One-shot convenience over the session lifecycle: open a
        :class:`~repro.engine.session.ClosureSession`, drive it to the
        fixed point, close it, return the finished computation.

        With ``resume`` (and checkpointing on), a manifest left in the
        workdir by an interrupted run restarts the computation from its
        completed-superstep watermark instead of from scratch; the final
        closure is byte-identical to an uninterrupted run's because the
        superstep fixpoint is confluent.  Fingerprint mismatches (other
        grammar, other graph) raise
        :class:`~repro.engine.checkpoint.CheckpointError`; a missing
        manifest silently falls back to a fresh run.
        """
        session = self.session(graph, resume=resume)
        try:
            session.open()
            return session.run()
        finally:
            session.close()

    def mid_superstep_limit(
        self, num_loaded: int = 2, budget_edges: Optional[int] = None
    ) -> int:
        """The resident-edge count that triggers a mid-superstep bail-out.

        ``num_loaded`` partitions are loaded at once (the paper's pair by
        default), each allowed to grow by ``repartition_growth`` before
        splitting — so the partition term is exactly
        ``num_loaded * max_edges_per_partition * growth``.  (A historical
        bug doubled this again, silently quadrupling the documented limit
        and delaying the §4.3 bail-out.)  ``budget_edges`` — how many
        edges the memory budget can still hold with the set loaded — caps
        it, so a budget-wide set's growth cannot outrun the budget
        (DESIGN.md §18).  0 disables the check (no partition size and no
        budget).
        """
        limits = []
        if self.max_edges_per_partition is not None:
            limits.append(
                int(
                    num_loaded
                    * self.max_edges_per_partition
                    * max(self.repartition_growth, 1.0)
                )
            )
        if budget_edges is not None:
            limits.append(max(1, int(budget_edges)))
        return min(limits, default=0)


def align_graph_labels(graph: MemGraph, grammar: FrozenGrammar) -> MemGraph:
    """Remap a graph's label ids to the grammar's interning.

    The frontend and the grammar intern labels independently; edges are
    matched by *name*.  Raises if the graph uses a label the grammar does
    not know.
    """
    if tuple(graph.label_names) == tuple(grammar.names):
        return graph
    if not graph.label_names:
        raise ValueError("graph has no label names; cannot align with grammar")
    mapping = np.zeros(len(graph.label_names), dtype=np.int64)
    for i, name in enumerate(graph.label_names):
        mapping[i] = grammar.label_id(name)  # raises GrammarError if unknown
    labels = mapping[packed.labels_of(graph.keys)]
    return MemGraph.from_arrays(
        graph.src,
        packed.targets_of(graph.keys),
        labels,
        num_vertices=graph.num_vertices,
        label_names=grammar.names,
    )
