"""The closure session: open → run/resume → query → close (DESIGN.md §14).

Historically :meth:`GraspanEngine.run` was a god-method: graph ingest,
checkpoint restore, pipeline wiring, the superstep loop, commit
ordering, telemetry teardown and result construction all lived in one
function.  That was fine for a one-shot batch tool but is hostile to a
long-lived serving tier: a daemon needs the lifecycle *split open* so it
can hold many closures at different stages at once, resume one while
querying another, and seed a session from a cached closure instead of a
raw graph.

:class:`ClosureSession` is that split.  One session owns exactly one
closure computation over one graph:

``open()``
    Ingest (align labels, preprocess into partitions) or restore (from a
    checkpoint manifest, or from a :class:`~repro.engine.store.ClosureStore`
    delta seed), then wire the residency budget, the run journal, the
    I/O pipeline, and the join backend.

``run()`` / ``step()``
    Drive the superstep loop to the fixed point — ``step()`` runs one
    scheduler-chosen superstep so callers may interleave their own work;
    ``run()`` loops it and finalizes.  A superstep loads a *set* of
    partitions as wide as the memory budget allows
    (:meth:`~repro.engine.scheduler.Scheduler.choose_set`, DESIGN.md
    §18), pins it, runs one fixed point over the union, scatters the
    result back per interval and marks every pair inside the set synced;
    the paper's pair is the case where only two partitions fit.

``computation``
    The query surface: after ``run()`` the finished
    :class:`~repro.engine.engine.GraspanComputation` answers label and
    statistics queries (the daemon serves checker queries against it).

``close()``
    Release the join backend and the I/O pipeline and fold their
    telemetry into the session's stats.  Idempotent; the context-manager
    form guarantees it even when a superstep raises.

Every piece of mutable run state — scheduler, stats, pipeline, pending
commit — is *session-scoped*, so concurrent sessions built from one
:class:`~repro.engine.engine.GraspanEngine` configuration never share
telemetry or scheduling state (the daemon runs many sessions at once).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.checkpoint import (
    RunJournal,
    build_manifest,
    grammar_fingerprint,
    graph_fingerprint,
    restore_partition_set,
    restore_scheduler,
    validate_manifest,
)
from repro.engine.join import CsrView
from repro.engine.parallel import JoinBackend, make_backend
from repro.engine.pipeline import IoPipeline, PendingCommit
from repro.engine.scheduler import Scheduler
from repro.engine.stats import EngineStats, SuperstepRecord
from repro.engine.superstep import KEY_BYTES, budget_limits, run_superstep
from repro.graph import packed
from repro.graph.graph import MemGraph
from repro.partition.preprocess import planned_partition_table, preprocess
from repro.partition.pset import PartitionSet
from repro.partition.storage import PartitionStore
from repro.util.retry import RetryPolicy
from repro.util.timing import Stopwatch


class SessionStateError(RuntimeError):
    """A lifecycle method was called out of order (e.g. run before open)."""


class ClosureSession:
    """One closure computation, from ingest to queryable result.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.GraspanEngine` carrying the run
        *configuration* (grammar, partition sizing, budget, backend,
        checkpoint/pipeline policy).  The engine is treated as read-only
        configuration — many sessions may share one engine concurrently.
    graph:
        The input graph.  Labels are aligned to the grammar in ``open``.
    resume:
        Restart from the last committed manifest in the engine's workdir
        (requires checkpointing; see :meth:`GraspanEngine.run`).
    pset / journal / store / superstep_index / stats:
        Pre-seeded state for delta re-closure: a restored partition set
        whose DDM deltas were seeded by a
        :class:`~repro.engine.store.ClosureStore` diff.  When ``pset``
        is given the session skips ingest/restore and runs the superstep
        loop from the seeded deltas.
    scheduler:
        Session-private scheduler.  Defaults to the engine's scheduler
        for drop-in compatibility; concurrent callers pass a fresh
        :class:`~repro.engine.scheduler.Scheduler` per session.
    """

    def __init__(
        self,
        engine,
        graph: MemGraph,
        resume: bool = False,
        pset: Optional[PartitionSet] = None,
        journal: Optional[RunJournal] = None,
        store: Optional[PartitionStore] = None,
        superstep_index: int = 0,
        stats: Optional[EngineStats] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.resume = resume
        self.scheduler = scheduler if scheduler is not None else engine.scheduler
        self.stats = stats
        self.pset = pset
        self.journal = journal
        self.store = store
        self.superstep_index = superstep_index
        self.grammar_crc = 0
        self.graph_crc = 0
        self._seeded = pset is not None
        self._opened = False
        self._finished = False
        self._closed = False
        self._backend: Optional[JoinBackend] = None
        self._io: Optional[IoPipeline] = None
        self._pending: Optional[PendingCommit] = None
        self._computation = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ClosureSession":
        return self.open()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def open(self) -> "ClosureSession":
        """Ingest or restore the graph and wire the run machinery."""
        if self._closed:
            raise SessionStateError("session is closed; open a new one")
        if self._opened:
            return self
        engine = self.engine
        if self.graph.num_vertices == 0 or self.graph.num_edges == 0:
            self._computation = _empty_computation(engine.grammar, self.graph)
            self._opened = True
            self._finished = True
            return self

        from repro.engine.engine import align_graph_labels

        self.graph = align_graph_labels(self.graph, engine.grammar)
        if self.stats is None:
            self.stats = EngineStats(
                original_edges=self.graph.num_edges,
                num_vertices=self.graph.num_vertices,
            )
        stats = self.stats

        checkpoint_on = (
            engine.workdir is not None and engine.checkpoint is not False
        ) or self.journal is not None
        if checkpoint_on:
            self.grammar_crc = grammar_fingerprint(engine.grammar)
            self.graph_crc = graph_fingerprint(
                self.graph,
                partition_table=planned_partition_table(
                    self.graph,
                    engine.max_edges_per_partition,
                    engine.num_partitions,
                ),
            )

        if self._seeded:
            # Delta re-closure: the ClosureStore restored the partition
            # set and seeded the DDM deltas already; just wire up.
            if self.journal is None or self.store is None:
                raise SessionStateError(
                    "seeded sessions need their journal and store"
                )
        else:
            if self.store is None and engine.workdir is not None:
                self.store = PartitionStore(
                    workdir=engine.workdir,
                    timers=stats.timers,
                    retry=(
                        engine.retry
                        if engine.retry is not None
                        else RetryPolicy.for_store()
                    ),
                    injector=engine.fault_injector,
                )
                stats.tmp_scrubbed = self.store.tmp_scrubbed
            if checkpoint_on and self.journal is None:
                self.journal = RunJournal(
                    engine.workdir, injector=engine.fault_injector
                )
            manifest = (
                self.journal.load_manifest()
                if (self.resume and self.journal)
                else None
            )
            if manifest is not None:
                validate_manifest(manifest, self.grammar_crc, self.graph_crc)
                self.pset = restore_partition_set(
                    manifest,
                    self.store,
                    self.journal,
                    memory_budget=engine.memory_budget,
                )
                restore_scheduler(self.scheduler, manifest.get("scheduler", {}))
                self.superstep_index = int(manifest["superstep"])
                stats.resumed_from_superstep = self.superstep_index
                stats.initial_partitions = int(manifest["initial_partitions"])
                stats.repartition_count = int(manifest["repartition_count"])
                self.journal.append(
                    {"event": "resume", "superstep": self.superstep_index}
                )
            else:
                self.pset = preprocess(
                    self.graph,
                    max_edges_per_partition=engine.max_edges_per_partition,
                    num_partitions=engine.num_partitions,
                    workdir=engine.workdir,
                    timers=stats.timers,
                    memory_budget=engine.memory_budget,
                    store=self.store,
                )
                stats.initial_partitions = self.pset.num_partitions
                if self.journal is not None:
                    self.journal.append(
                        {
                            "event": "begin",
                            "grammar_crc": self.grammar_crc,
                            "graph_crc": self.graph_crc,
                            "partitions": self.pset.num_partitions,
                            "edges": self.graph.num_edges,
                        }
                    )
                    self.journal.save_degrees(
                        self.pset.out_degrees, self.pset.in_degrees
                    )

        pset = self.pset
        stats.memory_budget = pset.memory_budget
        stats.checkpoint_enabled = self.journal is not None
        if self.journal is not None:
            pset.defer_deletes = True
            if stats.resumed_from_superstep is None:
                # Checkpoint 0 (or the seeded state): a crash inside the
                # very first superstep already has a resume point.
                self._commit_checkpoint()

        if engine.parallel_backend == "distributed":
            # Workers overlap their own reads with the coordinator's
            # applies; the coordinator itself commits synchronously per
            # superstep so every lease leaves a durable resume point.
            pipeline_on = False
        else:
            pipeline_on = (
                engine.workdir is not None and pset.store.disk_backed
                if engine.pipeline is None
                else bool(engine.pipeline)
            )
        self._io = IoPipeline() if pipeline_on else None
        stats.pipeline_enabled = self._io is not None
        if self._io is not None:
            pset.attach_io(self._io)

        # The backend (and its worker pool / shared segments) lives for
        # the whole session; close() guarantees shutdown.
        self._backend = make_backend(
            engine.parallel_backend, engine.grammar, engine.num_threads
        )
        self._backend.__enter__()
        self._backend.injector = engine.fault_injector
        self._opened = True
        return self

    def step(self) -> bool:
        """Run one scheduler-chosen superstep; False at the fixed point."""
        if not self._opened:
            raise SessionStateError("open() the session before stepping")
        if self._finished:
            return False
        engine = self.engine
        pset, io, stats = self.pset, self._io, self.stats
        loaded = self.scheduler.choose_set(
            pset.ddm,
            pset.scheduling_resident_pids(),
            pset.partition_sizes(),
            pset.memory_budget,
        )
        if io is not None:
            pset.reconcile_prefetch(loaded or ())
        if loaded is None:
            return False
        if len(stats.supersteps) >= engine.max_supersteps:
            raise RuntimeError(
                f"exceeded max_supersteps={engine.max_supersteps}; "
                "the computation may be diverging"
            )
        before = io.snapshot() if io is not None else None
        self._run_one_superstep(loaded)
        self.superstep_index += 1
        if self.journal is not None:
            if io is None:
                self._commit_checkpoint()
            else:
                # Lagged commit: make the *previous* superstep durable
                # (its flushes have had a whole superstep to complete in
                # the background), then queue this one.
                self._drain_commit()
                self._pending = self._begin_commit()
        if before is not None:
            self._record_pipeline_delta(before)
        return True

    def run(self):
        """Drive the superstep loop to the fixed point; returns the result."""
        if not self._opened:
            raise SessionStateError("open() the session before running")
        if self._computation is not None:
            return self._computation
        try:
            if self.engine.parallel_backend == "distributed":
                from repro.distributed.coordinator import run_distributed

                run_distributed(self)
            else:
                while self.step():
                    pass
            if self.journal is not None and self._io is not None:
                self._drain_commit()
        finally:
            self._harvest_backend()
        self._finished = True
        return self._finalize()

    @property
    def computation(self):
        """The finished computation; None until :meth:`run` completes."""
        return self._computation

    def close(self) -> None:
        """Release the backend and pipeline, folding in their telemetry."""
        if self._closed:
            return
        self._closed = True
        self._harvest_backend()
        if self._backend is not None:
            backend, self._backend = self._backend, None
            backend.__exit__(None, None, None)
        io = self._io
        if io is not None:
            self._io = None
            stats = self.stats
            if stats is not None:
                snap = io.snapshot()
                stats.prefetch_issued = int(snap["prefetch_issued"])
                stats.prefetch_hits = int(snap["prefetch_hits"])
                stats.prefetch_wasted = int(snap["prefetch_wasted"])
                stats.load_wait_seconds = snap["load_wait_seconds"]
                stats.flush_wait_seconds = snap["flush_wait_seconds"]
                stats.io_busy_seconds = snap["busy_seconds"]
                stats.io_hidden_seconds = io.hidden_seconds
                stats.overlap_fraction = io.overlap_fraction
            if self.pset is not None:
                self.pset.detach_io()
            io.close()

    # ------------------------------------------------------------------
    # internals (extracted verbatim from the old GraspanEngine.run body)
    # ------------------------------------------------------------------
    def _harvest_backend(self) -> None:
        if self._backend is not None and self.stats is not None:
            self.stats.worker_respawns = getattr(
                self._backend, "worker_respawns", 0
            )
            self.stats.backend_degraded = bool(
                getattr(self._backend, "_degraded", False)
            )

    def _finalize(self):
        from repro.engine.engine import GraspanComputation

        pset, stats = self.pset, self.stats
        # Fold pipeline counters in *before* the final eviction sweep so
        # the stats the caller sees are complete even without close().
        self.close()
        if pset.store.disk_backed:
            pset.evict_all_except(())
            pset.store.purge_retired()
        stats.final_edges = pset.total_edges()
        stats.final_partitions = pset.num_partitions
        if self.journal is not None:
            self.journal.append(
                {
                    "event": "finish",
                    "superstep": self.superstep_index,
                    "final_edges": stats.final_edges,
                }
            )
        self._snapshot_residency()
        self._computation = GraspanComputation(pset, self.engine.grammar, stats)
        return self._computation

    def _commit_checkpoint(self) -> None:
        """Durably commit the current state (flush → commit → purge)."""
        stats = self.stats
        with stats.timers.phase("checkpoint"):
            self.pset.flush_dirty()
            self.journal.commit(self._manifest())
            self.pset.store.purge_retired()
        stats.add_counter("checkpoints_written")

    def _begin_commit(self) -> PendingCommit:
        """Queue this superstep's checkpoint on the pipeline."""
        stats = self.stats
        with stats.timers.phase("checkpoint"):
            flushes = self.pset.begin_flush()
            manifest = self._manifest()
            mark = self.pset.store.retire_mark()
        return PendingCommit(
            superstep=self.superstep_index,
            manifest=manifest,
            flushes=flushes,
            retire_upto=mark,
        )

    def _drain_commit(self) -> None:
        """Make the queued checkpoint durable: wait flushes, commit, purge."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        stats = self.stats
        with stats.timers.phase("checkpoint"):
            for future in pending.flushes:
                self._io.wait_flush(future)
            self.journal.commit(pending.manifest)
            self.pset.store.purge_retired(upto=pending.retire_upto)
        stats.add_counter("checkpoints_written")

    def _manifest(self) -> Dict[str, object]:
        stats = self.stats
        return build_manifest(
            self.pset,
            self.superstep_index,
            self.grammar_crc,
            self.graph_crc,
            self.scheduler,
            original_edges=stats.original_edges,
            initial_partitions=stats.initial_partitions,
            repartition_count=stats.repartition_count,
        )

    def _record_pipeline_delta(self, before: Dict[str, float]) -> None:
        """Stamp the just-finished superstep's record with pipeline deltas."""
        after = self._io.snapshot()
        record = self.stats.supersteps[-1]
        record.prefetch_issued = int(
            after["prefetch_issued"] - before["prefetch_issued"]
        )
        record.prefetch_hits = int(
            after["prefetch_hits"] - before["prefetch_hits"]
        )
        record.prefetch_wasted = int(
            after["prefetch_wasted"] - before["prefetch_wasted"]
        )
        record.load_wait_seconds = (
            after["load_wait_seconds"] - before["load_wait_seconds"]
        )
        record.flush_wait_seconds = (
            after["flush_wait_seconds"] - before["flush_wait_seconds"]
        )

    def _snapshot_residency(self) -> None:
        """Copy residency/storage counters into the session's stats."""
        pset, stats = self.pset, self.stats
        residency = pset.residency
        stats.peak_resident_bytes = residency.peak_resident_bytes
        stats.max_partition_bytes = residency.max_partition_bytes
        stats.evictions = residency.evictions
        stats.cache_hits = residency.cache_hits
        stats.partition_loads = residency.loads
        stats.bytes_read = pset.store.bytes_read
        stats.bytes_written = pset.store.bytes_written
        stats.io_retries = pset.store.io_retries
        stats.tmp_scrubbed = max(stats.tmp_scrubbed, pset.store.tmp_scrubbed)
        stats.files_purged = pset.store.files_purged

    def _run_one_superstep(self, loaded: Tuple[int, ...]) -> None:
        """Load, join to a fixed point, scatter and sync one partition set.

        ``loaded`` is the scheduler's set, ascending; the paper's pair is
        the two-member case and a lone partition the one-member case.
        """
        engine, pset, stats, io = self.engine, self.pset, self.stats, self._io
        backend = self._backend
        budget = pset.memory_budget
        with pset.pinned(*loaded):
            if budget is None:
                # Historical policy: delayed write-back, only partitions
                # not needed next are evicted.
                pset.evict_all_except(loaded)
            parts = [pset.acquire(pid) for pid in loaded]

            # Speculative prefetch: predict the pair that seeds the next
            # set and start loading its non-resident members on the I/O
            # thread while the join below computes (declined where the
            # budget has no room, so a set that fills it prefetches
            # nothing).
            peek = getattr(self.scheduler, "peek_pair", None)
            if io is not None and peek is not None:
                predicted = peek(
                    pset.ddm,
                    pset.scheduling_resident_pids(),
                    assume_synced=loaded,
                )
                if predicted is not None:
                    for pid in dict.fromkeys(predicted):
                        if pid not in loaded and not pset.is_resident(pid):
                            pset.prefetch(pid)

            # Combine the loaded CSRs by concatenation: the set is
            # ascending, so their vertex ranges are disjoint and ordered.
            combined = _combine_views(parts)
            budget_edges, gather_cap = budget_limits(
                budget,
                sum(part.nbytes for part in parts),
                sum(part.num_edges for part in parts),
                max(pset.partition_sizes()),
            )

            watch = Stopwatch().start()
            with stats.timers.phase("compute"):
                result = run_superstep(
                    combined,
                    engine.grammar,
                    # A lone partition keeps the pair's allowance, as the
                    # paper's scheduler always gave it.
                    memory_limit_edges=engine.mid_superstep_limit(
                        max(len(loaded), 2), budget_edges
                    ),
                    num_threads=engine.num_threads,
                    backend=backend,
                    gather_cap=gather_cap,
                )
            seconds = watch.stop()

            # Scatter the merged flat edge set back into the loaded
            # partitions: one searchsorted cut per interval, rows are
            # zero-copy slices of the result keys.  Each member grows into
            # room the residency manager makes first — evicting other
            # partitions, then members already scattered — so a set that
            # outgrew the budget is written back instead of overshooting
            # it by more than the one partition being scattered.
            for pid, part in zip(loaded, parts):
                lo = int(
                    np.searchsorted(result.src, part.interval.lo, side="left")
                )
                hi = int(
                    np.searchsorted(result.src, part.interval.hi, side="right")
                )
                pset.enforce_budget(incoming=(hi - lo - part.num_edges) * KEY_BYTES)
                view = CsrView.from_flat(result.src[lo:hi], result.keys[lo:hi])
                part.replace_csr(view.vertices, view.indptr, view.keys)
                pset.note_mutated(pid)
                pset.ddm.set_exact_row(pid, part.destination_counts(pset.vit))
                pset.unpin((pid,))

            record_added_edges(pset, result.added_src, result.added_keys)
            if result.completed:
                pset.ddm.mark_synced(loaded)

            resident_edges = sum(pset.edge_count(pid) for pid in loaded)
            stats.max_counter("peak_resident_edges", resident_edges)

            self._maybe_repartition(loaded)
        # Growth during the superstep may have pushed the resident total
        # over the budget; settle it now that nothing is pinned.
        pset.enforce_budget()

        telemetry = result.telemetry
        stats.record_superstep(
            SuperstepRecord(
                pair=loaded,
                iterations=result.iterations,
                edges_added=result.edges_added,
                seconds=seconds,
                completed=result.completed,
                num_partitions_after=pset.num_partitions,
                backend=telemetry.backend if telemetry else "serial",
                chunk_count=telemetry.chunk_count if telemetry else 0,
                chunk_balance=telemetry.chunk_balance if telemetry else 1.0,
                pool_seconds=telemetry.pool_seconds if telemetry else 0.0,
                serial_estimate_seconds=(
                    telemetry.serial_estimate_seconds if telemetry else 0.0
                ),
                worker_respawns=telemetry.worker_respawns if telemetry else 0,
                backend_degraded=(
                    telemetry.backend_degraded if telemetry else False
                ),
                matmul_blocks_built=(
                    telemetry.matmul_blocks_built if telemetry else 0
                ),
                matmul_blocks_reused=(
                    telemetry.matmul_blocks_reused if telemetry else 0
                ),
                matmul_products=telemetry.matmul_products if telemetry else 0,
                matmul_nnz=telemetry.matmul_nnz if telemetry else 0,
            )
        )

    def _maybe_repartition(self, loaded: Tuple[int, ...]) -> None:
        """Split loaded partitions that outgrew the size threshold (§4.3)."""
        engine, pset, stats = self.engine, self.pset, self.stats
        if engine.max_edges_per_partition is None:
            return
        threshold = int(
            engine.max_edges_per_partition * engine.repartition_growth
        )
        # Split high ids first so earlier ids stay valid through id shifts.
        for pid in sorted(loaded, reverse=True):
            while (
                pset.edge_count(pid) > threshold
                and len(pset.vit.interval(pid)) > 1
            ):
                pset.split(pid)
                stats.add_counter("repartition_count")


# ---------------------------------------------------------------------------
# free helpers shared with the ClosureStore delta-seeding path
# ---------------------------------------------------------------------------


def _combine_views(parts: List) -> CsrView:
    """Concatenate loaded partitions' CSRs into one join-ready view.

    The partitions arrive in ascending interval order with disjoint
    vertex ranges, so concatenation (with the right half's ``indptr``
    rebased) *is* the merge — no sort, no dict.
    """
    if len(parts) == 1:
        return CsrView(*parts[0].csr())
    vertices = np.concatenate([part.vertices for part in parts])
    keys = np.concatenate([part.keys for part in parts])
    indptr_parts = [parts[0].indptr]
    offset = int(parts[0].indptr[-1])
    for part in parts[1:]:
        indptr_parts.append(part.indptr[1:] + offset)
        offset += int(part.indptr[-1])
    return CsrView(vertices, np.concatenate(indptr_parts), keys)


def record_added_edges(
    pset: PartitionSet, added_src: np.ndarray, added_keys: np.ndarray
) -> None:
    """Bucket new edges into DDM cells by (source, target) interval.

    The interval-low array is cached on the set (splits invalidate it)
    and the bucketed cells land in the DDM through one bulk scatter-add
    instead of a per-cell Python loop.  Shared by the per-superstep path
    and the ClosureStore's delta seeding — inserted delta edges dirty
    the DDM exactly as superstep-derived edges do.
    """
    if len(added_src) == 0:
        return
    lows = pset.interval_lows()
    src_pid = np.searchsorted(lows, added_src, side="right") - 1
    dst_pid = (
        np.searchsorted(lows, packed.targets_of(added_keys), side="right") - 1
    )
    n = pset.vit.num_partitions
    cells, counts = np.unique(src_pid * n + dst_pid, return_counts=True)
    pset.ddm.record_new_edges_bulk(cells, counts)


def _empty_computation(grammar, graph: MemGraph):
    """A trivial result for graphs with nothing to compute."""
    from repro.engine.engine import GraspanComputation
    from repro.partition.ddm import DestinationDistributionMap
    from repro.partition.interval import VertexIntervalTable
    from repro.partition.partition import Partition

    vit = VertexIntervalTable.single(max(1, graph.num_vertices))
    pset = PartitionSet(
        vit,
        DestinationDistributionMap(np.zeros((1, 1), dtype=np.int64)),
        [Partition(vit.interval(0), {})],
        PartitionStore(),
        label_names=grammar.names,
    )
    stats = EngineStats(num_vertices=graph.num_vertices)
    stats.initial_partitions = stats.final_partitions = 1
    return GraspanComputation(pset, grammar, stats)
