"""Execution statistics: the raw material for Tables 5-6 and Figure 4."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.timing import TimeBreakdown


@dataclass
class SuperstepRecord:
    """One row of the superstep log.

    The last five fields carry the join backend's parallelism telemetry
    (see :class:`repro.engine.parallel.JoinTelemetry`): how many left
    chunks were dispatched, how uneven the largest chunk was relative to
    the mean (1.0 = perfectly balanced), wall time spent in the pool,
    and the summed per-chunk kernel time — the serial estimate the pool
    wall time is compared against to gauge realized speedup.
    """

    #: The partitions the superstep loaded, ascending — a pair in the
    #: paper's k = 2 case, ``(p,)`` for a lone partition, as many as the
    #: budget held otherwise (DESIGN.md §18).
    pair: Tuple[int, ...]
    iterations: int
    edges_added: int
    seconds: float
    completed: bool
    num_partitions_after: int
    backend: str = "serial"
    chunk_count: int = 0
    chunk_balance: float = 1.0
    pool_seconds: float = 0.0
    serial_estimate_seconds: float = 0.0
    worker_respawns: int = 0
    backend_degraded: bool = False
    # Matmul-kernel telemetry (DESIGN.md §11): per-label CSR blocks built
    # vs carried over unchanged across iterations, boolean products
    # formed, and their total nonzeros (distinct candidate pairs).
    matmul_blocks_built: int = 0
    matmul_blocks_reused: int = 0
    matmul_products: int = 0
    matmul_nnz: int = 0
    # I/O pipeline telemetry (deltas over this superstep; DESIGN.md §10).
    prefetch_issued: int = 0  # speculative loads started
    prefetch_hits: int = 0  # prefetched partitions the superstep consumed
    prefetch_wasted: int = 0  # mispredicted loads cancelled or evicted
    load_wait_seconds: float = 0.0  # engine blocked joining in-flight loads
    flush_wait_seconds: float = 0.0  # engine blocked draining write-backs
    # Distributed-lease telemetry (DESIGN.md §16): which worker computed
    # this superstep, under which lease epoch, after how many reissues,
    # and how many delta edges it shipped back.
    worker: str = ""  # empty on non-distributed supersteps
    lease_epoch: int = 0
    lease_reissues: int = 0
    delta_edges: int = 0

    @property
    def speedup_estimate(self) -> float:
        if self.pool_seconds <= 0.0:
            return 1.0
        return self.serial_estimate_seconds / self.pool_seconds


@dataclass
class EngineStats:
    """Everything measured during one engine run.

    ``timers`` carries the Table 6 phase breakdown (``compute``, ``io``,
    ``preprocess``); ``supersteps`` carries the Figure 4 series.
    """

    original_edges: int = 0
    final_edges: int = 0
    num_vertices: int = 0
    initial_partitions: int = 0
    final_partitions: int = 0
    repartition_count: int = 0
    supersteps: List[SuperstepRecord] = field(default_factory=list)
    timers: TimeBreakdown = field(default_factory=TimeBreakdown)
    peak_resident_edges: int = 0
    # Residency/storage counters (copied from the ResidencyManager and the
    # PartitionStore at the end of a run): the observable behaviour of the
    # memory-budgeted residency stack.
    memory_budget: Optional[int] = None  # configured budget in bytes (None = off)
    peak_resident_bytes: int = 0  # high-water mark of resident CSR bytes
    max_partition_bytes: int = 0  # largest single partition ever resident
    evictions: int = 0  # resident copies dropped (dirty ones written back)
    cache_hits: int = 0  # acquires answered without touching disk
    partition_loads: int = 0  # acquires that had to read a partition file
    bytes_read: int = 0  # partition file bytes read
    bytes_written: int = 0  # partition file bytes written
    # Durability / fault-tolerance counters (DESIGN.md §9).
    checkpoint_enabled: bool = False  # run journal + manifest were written
    checkpoints_written: int = 0  # manifest commits this run
    resumed_from_superstep: Optional[int] = None  # watermark a resume started at
    io_retries: int = 0  # transient I/O errors absorbed by backoff
    tmp_scrubbed: int = 0  # torn *.tmp orphans removed at startup
    files_purged: int = 0  # retired partition files removed post-commit
    worker_respawns: int = 0  # join-pool rebuilds after dead workers
    backend_degraded: bool = False  # pool backend fell back to inline joins
    # I/O pipeline counters (DESIGN.md §10): how much disk work ran in the
    # background and how much of it the engine actually had to wait for.
    pipeline_enabled: bool = False  # background I/O thread was attached
    prefetch_issued: int = 0  # speculative partition loads started
    prefetch_hits: int = 0  # speculative loads later consumed by acquire
    prefetch_wasted: int = 0  # mispredicted loads cancelled or evicted
    load_wait_seconds: float = 0.0  # engine time blocked on in-flight loads
    flush_wait_seconds: float = 0.0  # engine time draining async write-backs
    io_busy_seconds: float = 0.0  # wall time the I/O thread moved bytes
    io_hidden_seconds: float = 0.0  # I/O that ran fully under compute
    overlap_fraction: float = 0.0  # hidden / busy (0.0 when pipeline off)
    # Distributed-superstep counters (DESIGN.md §16): the coordinator's
    # lease ledger.  ``leases_issued`` counts every lease handed out
    # (including reissues); completions, reissues after worker death or
    # deadline expiry, and the idempotency rejections are tracked
    # separately so the at-most-once property is directly assertable.
    distributed_workers: int = 0  # workers that ever completed a handshake
    leases_issued: int = 0  # leases handed out (incl. reissues)
    leases_completed: int = 0  # deltas applied to the closure
    leases_reissued: int = 0  # leases re-queued after death/expiry/release
    leases_expired: int = 0  # deadline expiries among the reissues
    worker_deaths: int = 0  # connections lost holding a live lease
    duplicate_deltas_suppressed: int = 0  # same lease delivered twice
    stale_deltas_rejected: int = 0  # completions under a superseded epoch
    delta_edges_applied: int = 0  # edges shipped by workers and merged
    heartbeats_received: int = 0  # deadline renewals
    # Closure-store provenance (DESIGN.md §14): how this closure was
    # obtained and, for delta re-closures, how big the input diff was.
    closure_source: str = "cold"  # "cold" | "cache" | "incremental"
    delta_added_edges: int = 0  # input edges added vs the base closure
    delta_deleted_edges: int = 0  # input edges removed (forces a cold run)
    delta_seed_partitions: int = 0  # partitions seeded with delta edges
    # Accumulation lock: stats are session-scoped, but the daemon reads
    # summaries concurrently with a running session and helper threads
    # (pipeline, service executor) may bump counters; every read-modify-
    # write below goes through this lock.  Excluded from ==/repr so the
    # dataclass still compares by measurement.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_superstep(self, record: SuperstepRecord) -> None:
        """Append one superstep's record under the accumulation lock."""
        with self.lock:
            self.supersteps.append(record)

    def add_counter(self, name: str, amount: int = 1) -> int:
        """Atomically bump an integer counter field; returns the new value.

        ``stats.field += 1`` is a read-modify-write that loses updates
        under concurrency; every counter mutation from superstep or
        service code funnels through here instead.
        """
        with self.lock:
            value = getattr(self, name) + amount
            setattr(self, name, value)
            return value

    def max_counter(self, name: str, candidate: int) -> int:
        """Atomically raise a high-water-mark field to ``candidate``."""
        with self.lock:
            value = max(getattr(self, name), candidate)
            setattr(self, name, value)
            return value

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_edges_added(self) -> int:
        return sum(r.edges_added for r in self.supersteps)

    @property
    def growth_factor(self) -> float:
        """Final edges over original edges (Table 5's size blowup)."""
        if self.original_edges == 0:
            return 0.0
        return self.final_edges / self.original_edges

    def added_fraction_series(self) -> List[float]:
        """Figure 4: per-superstep edges added / original edge count."""
        if self.original_edges == 0:
            return []
        return [r.edges_added / self.original_edges for r in self.supersteps]

    def cumulative_added_fraction(self) -> List[float]:
        series = self.added_fraction_series()
        out: List[float] = []
        running = 0.0
        for x in series:
            running += x
            out.append(running)
        return out

    def parallelism_summary(self) -> Dict[str, object]:
        """Aggregate join-backend telemetry across all supersteps.

        ``speedup_estimate`` compares the summed per-chunk kernel time
        against the pool wall time — the realized parallel efficiency
        without paying for a second, serial run.
        """
        pool = sum(r.pool_seconds for r in self.supersteps)
        serial = sum(r.serial_estimate_seconds for r in self.supersteps)
        chunks = sum(r.chunk_count for r in self.supersteps)
        backend = self.supersteps[-1].backend if self.supersteps else "serial"
        worst_balance = max(
            (r.chunk_balance for r in self.supersteps), default=1.0
        )
        return {
            "backend": backend,
            "chunks": chunks,
            "worst_chunk_balance": round(worst_balance, 2),
            "pool_s": round(pool, 3),
            "serial_estimate_s": round(serial, 3),
            "speedup_estimate": round(serial / pool, 2) if pool > 0 else 1.0,
        }

    def summary(self) -> Dict[str, object]:
        """A flat dict for table rendering and JSON dumps."""
        return {
            "vertices": self.num_vertices,
            "edges_before": self.original_edges,
            "edges_after": self.final_edges,
            "growth": round(self.growth_factor, 2),
            "partitions_initial": self.initial_partitions,
            "partitions_final": self.final_partitions,
            "repartitions": self.repartition_count,
            "supersteps": self.num_supersteps,
            "compute_s": round(self.timers.get("compute"), 3),
            "io_s": round(self.timers.get("io"), 3),
            "preprocess_s": round(self.timers.get("preprocess"), 3),
            "total_s": round(self.timers.total(), 3),
            "peak_resident_edges": self.peak_resident_edges,
            "memory_budget": self.memory_budget,
            "peak_resident_bytes": self.peak_resident_bytes,
            "max_partition_bytes": self.max_partition_bytes,
            "evictions": self.evictions,
            "cache_hits": self.cache_hits,
            "partition_loads": self.partition_loads,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "backend": (
                self.supersteps[-1].backend if self.supersteps else "serial"
            ),
            "parallel_speedup": self.parallelism_summary()["speedup_estimate"],
            "checkpoints": self.checkpoints_written,
            "resumed_from": self.resumed_from_superstep,
            "io_retries": self.io_retries,
            "tmp_scrubbed": self.tmp_scrubbed,
            "files_purged": self.files_purged,
            "worker_respawns": self.worker_respawns,
            "backend_degraded": self.backend_degraded,
            "pipeline": self.pipeline_enabled,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_wasted": self.prefetch_wasted,
            "load_wait_s": round(self.load_wait_seconds, 3),
            "flush_wait_s": round(self.flush_wait_seconds, 3),
            "io_busy_s": round(self.io_busy_seconds, 3),
            "io_hidden_s": round(self.io_hidden_seconds, 3),
            "overlap_fraction": round(self.overlap_fraction, 3),
            "closure_source": self.closure_source,
            "delta_added_edges": self.delta_added_edges,
            "delta_deleted_edges": self.delta_deleted_edges,
            "delta_seed_partitions": self.delta_seed_partitions,
        }

    def matmul_summary(self) -> Dict[str, object]:
        """Aggregate matmul-kernel telemetry across all supersteps.

        ``block_reuse_fraction`` is the share of label blocks an
        iteration could carry over unchanged instead of rebuilding —
        the payoff of the O ∪ D union hint (DESIGN.md §11).
        """
        built = sum(r.matmul_blocks_built for r in self.supersteps)
        reused = sum(r.matmul_blocks_reused for r in self.supersteps)
        total = built + reused
        return {
            "blocks_built": built,
            "blocks_reused": reused,
            "block_reuse_fraction": round(reused / total, 3) if total else 0.0,
            "products": sum(r.matmul_products for r in self.supersteps),
            "product_nnz": sum(r.matmul_nnz for r in self.supersteps),
        }

    def pipeline_summary(self) -> Dict[str, object]:
        """The I/O overlap counters as one row (CLI + the overlap bench)."""
        return {
            "pipeline": self.pipeline_enabled,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_wasted": self.prefetch_wasted,
            "load_wait_s": round(self.load_wait_seconds, 3),
            "flush_wait_s": round(self.flush_wait_seconds, 3),
            "io_busy_s": round(self.io_busy_seconds, 3),
            "io_hidden_s": round(self.io_hidden_seconds, 3),
            "overlap_fraction": round(self.overlap_fraction, 3),
        }

    def distributed_summary(self) -> Dict[str, object]:
        """The coordinator's lease ledger as one row (CLI + tests).

        ``reissue_fraction`` is the share of issued leases that had to be
        handed out again; under fault-free runs it is 0.0 and every
        issued lease completes exactly once.
        """
        issued = self.leases_issued
        return {
            "workers": self.distributed_workers,
            "leases_issued": issued,
            "leases_completed": self.leases_completed,
            "leases_reissued": self.leases_reissued,
            "leases_expired": self.leases_expired,
            "worker_deaths": self.worker_deaths,
            "duplicate_deltas_suppressed": self.duplicate_deltas_suppressed,
            "stale_deltas_rejected": self.stale_deltas_rejected,
            "delta_edges_applied": self.delta_edges_applied,
            "heartbeats_received": self.heartbeats_received,
            "reissue_fraction": (
                round(self.leases_reissued / issued, 3) if issued else 0.0
            ),
        }

    def durability_summary(self) -> Dict[str, object]:
        """The fault-tolerance counters as one row (CLI + tests)."""
        return {
            "checkpoint": self.checkpoint_enabled,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": self.resumed_from_superstep,
            "checkpoint_s": round(self.timers.get("checkpoint"), 3),
            "io_retries": self.io_retries,
            "tmp_scrubbed": self.tmp_scrubbed,
            "files_purged": self.files_purged,
            "worker_respawns": self.worker_respawns,
            "backend_degraded": self.backend_degraded,
        }
