"""Pluggable join backends: serial, thread-pool, and process-pool.

The edge-pair join of Algorithm 1 is embarrassingly parallel over the
left edges ("create a separate thread to process each vertex", §4.2),
but a Python thread pool only overlaps the parts of the numpy kernels
that release the GIL — chunking, gather setup, and result assembly all
serialize.  The process backend gets the paper's real multi-core
speedup: every superstep iteration publishes its read-only
:class:`~repro.engine.join.CsrView` snapshots into POSIX shared memory
*once*, persistent worker processes map them zero-copy as numpy views,
and each worker joins an edge-balanced chunk of the left rows fully
outside the GIL.  Only the compact candidate ``(src, key)`` result
arrays travel back over the pipe.

Three backends implement one :class:`JoinBackend` interface:

``serial``
    The join runs inline.  The baseline every other backend must match
    bit-for-bit (chunking cannot change the result because duplicates
    are eliminated downstream, during the sorted merge), and the default
    when scipy is missing — with it, the default is the sparse-product
    ``matmul`` backend of :mod:`repro.engine.matmul`.

``thread``
    A persistent ``ThreadPoolExecutor``; chunks share the address space,
    so nothing is copied, but the GIL bounds the speedup.

``process``
    A persistent ``multiprocessing`` pool over shared-memory CSR
    snapshots.  Falls back to ``thread`` (via :func:`make_backend`) when
    shared memory is unavailable on the platform.

All backends are context managers — pools and shared-memory segments
are released on ``__exit__`` even when the engine run fails — and all
record per-superstep :class:`JoinTelemetry` (chunk count, chunk-balance
ratio, pool wall time vs. the serial estimate) that the engine copies
into each :class:`~repro.engine.stats.SuperstepRecord`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.join import CsrView, join_edges
from repro.graph import packed
from repro.grammar.grammar import FrozenGrammar

#: The valid values of ``GraspanEngine(parallel_backend=...)``.
#: ``distributed`` fans the pair schedule out across coordinator/worker
#: processes (DESIGN.md §16) — it operates *above* the JoinBackend seam
#: (each worker runs its own local backend), so :func:`make_backend`
#: maps it to the serial inline join for any coordinator-side compute.
BACKENDS = ("serial", "thread", "process", "matmul", "distributed")

#: Left joins smaller than this run inline even on pooled backends; the
#: dispatch overhead would dwarf the join itself.
MIN_PARALLEL_EDGES = 256

#: How many times the process backend rebuilds its pool after losing a
#: worker before giving up and degrading to inline joins.
MAX_POOL_RESPAWNS = 3

logger = logging.getLogger(__name__)


def shared_memory_available() -> bool:
    """Probe whether POSIX shared memory actually works here.

    ``multiprocessing.shared_memory`` imports fine on every platform but
    can still fail at runtime (no /dev/shm, sandboxed container, …), so
    we round-trip one real segment.
    """
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=8)
        try:
            segment.buf[0] = 1
            ok = segment.buf[0] == 1
        finally:
            segment.close()
            segment.unlink()
        return bool(ok)
    except Exception:
        return False


def _unlink_segments(segments: Sequence) -> None:
    """Close and unlink shared segments, ignoring ones already gone."""
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass


@dataclass
class JoinTelemetry:
    """Parallelism counters for one superstep (reset by ``begin_superstep``).

    ``serial_estimate_seconds`` sums the time each chunk spent inside the
    join kernel; ``pool_seconds`` is the wall time the backend spent
    dispatching and collecting.  Their ratio estimates the realized
    speedup without a second serial run.
    """

    backend: str = "serial"
    chunk_count: int = 0
    max_chunk_edges: int = 0
    total_chunk_edges: int = 0
    pool_seconds: float = 0.0
    serial_estimate_seconds: float = 0.0
    backend_degraded: bool = False  # pool fell back to inline joins
    worker_respawns: int = 0  # pool rebuilds after a dead worker
    # Matmul-backend counters (repro.engine.matmul): label-block CSR
    # snapshots built vs carried over unchanged, boolean products formed,
    # and the nonzeros they produced (distinct candidate (src, dst) pairs).
    matmul_blocks_built: int = 0
    matmul_blocks_reused: int = 0
    matmul_products: int = 0
    matmul_nnz: int = 0
    # Distributed-lease counters (repro.distributed, DESIGN.md §16): the
    # lease epoch the delta arrived under, how many times that pair's
    # lease had to be reissued before this apply, and the shipped delta
    # size in edges.  Zero everywhere except coordinator-applied leases.
    lease_epoch: int = 0
    lease_reissues: int = 0
    delta_edges: int = 0

    @property
    def chunk_balance(self) -> float:
        """Largest chunk over the mean chunk, in left edges (1.0 = even)."""
        if self.chunk_count == 0 or self.total_chunk_edges == 0:
            return 1.0
        mean = self.total_chunk_edges / self.chunk_count
        return self.max_chunk_edges / mean

    @property
    def speedup_estimate(self) -> float:
        if self.pool_seconds <= 0.0:
            return 1.0
        return self.serial_estimate_seconds / self.pool_seconds

    def record_chunks(self, chunk_edge_counts: Sequence[int]) -> None:
        for n in chunk_edge_counts:
            self.chunk_count += 1
            self.total_chunk_edges += int(n)
            self.max_chunk_edges = max(self.max_chunk_edges, int(n))


def expand_view(view: CsrView) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a CSR view into parallel ``(src, key)`` edge arrays."""
    if view.num_edges == 0:
        return packed.EMPTY, packed.EMPTY
    counts = view.indptr[1:] - view.indptr[:-1]
    return np.repeat(view.vertices, counts), view.keys


def expand_rows(view: CsrView, row_lo: int, row_hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten rows ``[row_lo, row_hi)`` of a CSR view into edge arrays."""
    counts = view.indptr[row_lo + 1 : row_hi + 1] - view.indptr[row_lo:row_hi]
    src = np.repeat(view.vertices[row_lo:row_hi], counts)
    keys = view.keys[view.indptr[row_lo] : view.indptr[row_hi]]
    return src, keys


def plan_row_chunks(indptr: np.ndarray, num_chunks: int) -> List[Tuple[int, int]]:
    """Split CSR rows into ≤ ``num_chunks`` edge-balanced row ranges.

    Cuts land on row boundaries nearest the ideal equal-edge split, so a
    single huge row caps the achievable balance (reported via
    :attr:`JoinTelemetry.chunk_balance`).
    """
    num_rows = len(indptr) - 1
    total = int(indptr[-1]) if len(indptr) else 0
    if num_rows <= 0 or total == 0:
        return []
    num_chunks = max(1, min(num_chunks, num_rows))
    targets = np.linspace(0, total, num_chunks + 1)[1:-1]
    cuts = np.unique(
        np.concatenate(
            [[0], np.searchsorted(indptr, targets, side="left"), [num_rows]]
        )
    ).astype(np.int64)
    return [
        (int(cuts[i]), int(cuts[i + 1]))
        for i in range(len(cuts) - 1)
        if cuts[i + 1] > cuts[i]
    ]


def plan_span_chunks(n: int, num_chunks: int) -> List[Tuple[int, int]]:
    """Split ``n`` elements into ≤ ``num_chunks`` contiguous spans."""
    if n <= 0:
        return []
    num_chunks = max(1, min(num_chunks, n))
    bounds = np.linspace(0, n, num_chunks + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(num_chunks)
        if bounds[i + 1] > bounds[i]
    ]


class JoinBackend:
    """Common interface the superstep routes all edge-pair joins through.

    Subclasses implement :meth:`join_arrays`; :meth:`join_views` is the
    entry point the superstep uses (the process backend overrides it to
    ship CSR snapshots through shared memory instead of expanding them
    in the parent).  Use as a context manager so pools shut down even if
    the engine raises mid-run.
    """

    name = "serial"

    #: Set permanently once a pooled backend falls back to inline joins;
    #: :attr:`display_name` and each superstep's telemetry reflect it so
    #: degradation is never silent.
    _degraded = False

    #: Optional :class:`repro.util.faults.FaultInjector` (set by the
    #: engine) consulted before each parallel dispatch.
    injector = None

    #: Whether a join materializes every continuation edge of its left
    #: edges before the grammar filter (the edge-pair kernel).  Under a
    #: memory budget the superstep cuts such joins into left batches;
    #: backends whose joins do not gather (matmul) run them whole.
    gathers_continuations = True

    #: The live iteration's snapshot views (see :meth:`begin_iteration`).
    _snapshots: Tuple[CsrView, ...] = ()

    def __init__(
        self,
        grammar: FrozenGrammar,
        num_workers: int = 1,
        head_mask: Optional[np.ndarray] = None,
        requested: Optional[str] = None,
    ) -> None:
        self.grammar = grammar
        self.num_workers = max(1, int(num_workers))
        self.head_mask = grammar.head_labels() if head_mask is None else head_mask
        self.requested = requested if requested is not None else self.name
        self.telemetry = self._fresh_telemetry()

    # -- lifecycle -------------------------------------------------------
    @property
    def display_name(self) -> str:
        """Backend label for telemetry; flags fallbacks and degradation."""
        if self._degraded:
            return f"{self.name}(degraded)"
        if self.requested != self.name:
            return f"{self.name}({self.requested}-fallback)"
        return self.name

    def _fresh_telemetry(self) -> JoinTelemetry:
        return JoinTelemetry(
            backend=self.display_name, backend_degraded=self._degraded
        )

    def __enter__(self) -> "JoinBackend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Release pools and shared segments; idempotent."""

    def begin_superstep(self) -> None:
        """Reset telemetry (and any published segments) for a superstep."""
        self._release_published()
        self._snapshots = ()
        self.telemetry = self._fresh_telemetry()

    def begin_iteration(self, snapshots: Sequence[CsrView] = ()) -> None:
        """Mark a new fixed-point iteration: prior CSR snapshots are dead.

        ``snapshots`` are the views that live for the whole iteration —
        the superstep's ``O`` and ``D``.  Only those may carry cached
        per-view state (published segments, label blocks) until the next
        call; any other view, such as a left batch cut from one, is used
        for one join and its state released with it.  Holding the
        snapshots here also keeps their ``id()`` from being recycled
        while a cache is keyed on it.
        """
        self._release_published()
        self._snapshots = tuple(snapshots)

    def end_superstep(self) -> None:
        self._release_published()
        self._snapshots = ()

    def _is_snapshot(self, view: CsrView) -> bool:
        return any(view is snapshot for snapshot in self._snapshots)

    def _release_published(self) -> None:
        """Hook for backends that pin per-iteration resources."""

    def note_union(self, merged, a, b) -> None:
        """Hint: ``merged`` is the disjoint union of views ``a`` and ``b``.

        The superstep announces ``O <- O ∪ D`` through this hook so
        backends that keep per-snapshot derived state (the matmul
        backend's label blocks) can carry it across iterations instead
        of rebuilding from scratch.  Default: ignore the hint.
        """

    # -- joining ---------------------------------------------------------
    def join_views(
        self, left: CsrView, rights: Sequence[CsrView]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Join every left edge of ``left`` against each right view."""
        left_src, left_keys = expand_view(left)
        return self.join_arrays(left_src, left_keys, rights)

    def join_edge_list(
        self,
        left_src: np.ndarray,
        left_keys: np.ndarray,
        left_view: CsrView,
        rights: Sequence[CsrView],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Join flat left edges that are also available as a CSR view.

        The superstep keeps its state in both forms — flat ``(src, key)``
        arrays for merges and a grouped view for the join — so backends
        pick whichever is cheaper: in-process backends consume the flat
        arrays directly (no expand/flatten round-trip), while the process
        backend overrides this to ship the compact CSR snapshot through
        shared memory instead of the expanded source column.
        """
        return self.join_arrays(left_src, left_keys, rights)

    def join_arrays(
        self,
        left_src: np.ndarray,
        left_keys: np.ndarray,
        rights: Sequence[CsrView],
    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @staticmethod
    def _concat(
        results: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        srcs = [s for s, _ in results if len(s)]
        keys = [k for _, k in results if len(k)]
        if not srcs:
            return packed.EMPTY, packed.EMPTY
        return np.concatenate(srcs), np.concatenate(keys)


class SerialJoinBackend(JoinBackend):
    """The inline join: one chunk per non-empty right view."""

    name = "serial"

    def join_arrays(self, left_src, left_keys, rights):
        if len(left_src) == 0:
            return packed.EMPTY, packed.EMPTY
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        started = time.perf_counter()
        for right in rights:
            if right.num_edges == 0:
                continue
            results.append(
                join_edges(left_src, left_keys, right, self.grammar, self.head_mask)
            )
            self.telemetry.record_chunks([len(left_src)])
        elapsed = time.perf_counter() - started
        self.telemetry.pool_seconds += elapsed
        self.telemetry.serial_estimate_seconds += elapsed
        return self._concat(results)


class ThreadJoinBackend(JoinBackend):
    """A persistent thread pool; zero-copy chunks, GIL-bounded speedup."""

    name = "thread"

    def __init__(self, grammar, num_workers=1, head_mask=None, requested=None):
        super().__init__(grammar, num_workers, head_mask, requested)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="graspan-join"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _timed_join(self, left_src, left_keys, right):
        started = time.perf_counter()
        src, keys = join_edges(left_src, left_keys, right, self.grammar, self.head_mask)
        return src, keys, time.perf_counter() - started

    def join_arrays(self, left_src, left_keys, rights):
        rights = [r for r in rights if r.num_edges]
        if len(left_src) == 0 or not rights:
            return packed.EMPTY, packed.EMPTY

        spans = plan_span_chunks(len(left_src), self.num_workers)
        if self.num_workers <= 1 or len(left_src) < max(
            MIN_PARALLEL_EDGES, 2 * self.num_workers
        ):
            spans = [(0, len(left_src))]

        tasks = [
            (left_src[lo:hi], left_keys[lo:hi], right)
            for right in rights
            for lo, hi in spans
        ]
        self.telemetry.record_chunks([len(s) for s, _, _ in tasks])

        started = time.perf_counter()
        if len(tasks) == 1:
            outs = [self._timed_join(*tasks[0])]
        else:
            pool = self._ensure_pool()
            outs = list(pool.map(lambda t: self._timed_join(*t), tasks))
        self.telemetry.pool_seconds += time.perf_counter() - started
        self.telemetry.serial_estimate_seconds += sum(sec for _, _, sec in outs)
        return self._concat([(s, k) for s, k, _ in outs])


# ---------------------------------------------------------------------------
# process backend: shared-memory CSR snapshots + a persistent worker pool
# ---------------------------------------------------------------------------

#: Worker-process globals, installed once by :func:`_worker_init` so the
#: grammar tables are shipped a single time per pool, not per task.
_WORKER_GRAMMAR: Optional[FrozenGrammar] = None
_WORKER_HEAD_MASK: Optional[np.ndarray] = None


def _worker_init(grammar: FrozenGrammar, head_mask: np.ndarray) -> None:
    global _WORKER_GRAMMAR, _WORKER_HEAD_MASK
    _WORKER_GRAMMAR = grammar
    _WORKER_HEAD_MASK = head_mask


def _attach_segment(name: str):
    """Attach an existing shared-memory segment by name.

    Pool workers share the parent's resource tracker (they are its
    children), so the attach-time register is a set no-op and the
    parent's single ``unlink()`` balances the books — no extra
    unregister gymnastics needed or wanted.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _attach_arrays(descs: Sequence[Tuple[str, int]]):
    """Map shared segments as int64 numpy views; returns (arrays, segments)."""
    arrays: List[np.ndarray] = []
    segments = []
    for name, length in descs:
        if length == 0:
            arrays.append(packed.EMPTY)
            continue
        segment = _attach_segment(name)
        segments.append(segment)
        arrays.append(
            np.ndarray(length, dtype=np.int64, buffer=segment.buf)
        )
    return arrays, segments


def _worker_join(task):
    """Run one chunk of the join inside a worker process.

    ``task`` is ``(kind, left_descs, right_descs_list, lo, hi)`` where
    ``kind`` selects how the left edges are encoded: ``"csr"`` descs are
    (vertices, indptr, keys) with ``lo:hi`` a row range; ``"arrays"``
    descs are (src, keys) with ``lo:hi`` an element range.  Returns the
    candidate ``(src, keys)`` arrays plus the kernel seconds.
    """
    kind, left_descs, right_descs_list, lo, hi = task
    started = time.perf_counter()
    attached = []
    try:
        left_arrays, segments = _attach_arrays(left_descs)
        attached.extend(segments)
        if kind == "csr":
            view = CsrView(left_arrays[0], left_arrays[1], left_arrays[2])
            left_src, left_keys = expand_rows(view, lo, hi)
            del view
        else:
            left_src = left_arrays[0][lo:hi]
            left_keys = left_arrays[1][lo:hi]

        results: List[Tuple[np.ndarray, np.ndarray]] = []
        for right_descs in right_descs_list:
            right_arrays, segments = _attach_arrays(right_descs)
            attached.extend(segments)
            right = CsrView(right_arrays[0], right_arrays[1], right_arrays[2])
            results.append(
                join_edges(left_src, left_keys, right, _WORKER_GRAMMAR, _WORKER_HEAD_MASK)
            )
            del right, right_arrays

        src, keys = JoinBackend._concat(results)
        # join_edges outputs are fresh arrays (gathers copy), but make the
        # no-shared-buffer invariant explicit before segments close.
        if src.base is not None:
            src = src.copy()
        if keys.base is not None:
            keys = keys.copy()
        del left_src, left_keys, left_arrays, results
        return src, keys, time.perf_counter() - started
    finally:
        for segment in attached:
            try:
                segment.close()
            except BufferError:  # a view leaked; leave the map to the OS
                pass


class ProcessJoinBackend(JoinBackend):
    """Shared-nothing workers over shared-memory CSR snapshots.

    The pool persists across supersteps (fork once, join many); each
    superstep iteration publishes its old/new CSR snapshots exactly once
    and every task references them by segment name; a left batch cut
    from a snapshot is published for its own join only.  If shared memory
    fails mid-run the backend degrades to inline joins rather than
    crashing the engine.
    """

    name = "process"

    def __init__(self, grammar, num_workers=2, head_mask=None, requested=None):
        super().__init__(grammar, max(2, num_workers), head_mask, requested)
        self._pool = None
        self._published: Dict[int, Tuple[List[Tuple[str, int]], list]] = {}
        self._degraded = False
        self._warned_degraded = False
        self.max_respawns = MAX_POOL_RESPAWNS
        self.respawn_base_delay = 0.05
        self.worker_respawns = 0

    # -- pool ------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ctx.Pool(
                processes=self.num_workers,
                initializer=_worker_init,
                initargs=(self.grammar, self.head_mask),
            )
        return self._pool

    def close(self) -> None:
        self._release_published()
        self._teardown_pool()

    def _teardown_pool(self) -> None:
        """Kill the pool only — published shared segments stay valid.

        Deliberately avoids ``Pool.terminate()``: a SIGKILLed worker can
        die while holding the shared task-queue lock, and terminate()'s
        queue drain then blocks on that lock forever.  Stopping the
        maintenance thread and killing the workers directly is safe
        regardless of what lock a corpse was holding.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            from multiprocessing.pool import TERMINATE

            pool._worker_handler._state = TERMINATE  # stop auto-respawn
            # The pool's GC finalizer runs the same queue drain; cancel
            # it or a later collection deadlocks exactly the same way.
            pool._terminate.cancel()
            workers = list(pool._pool)
        except (ImportError, AttributeError):  # CPython internals moved
            pool.terminate()
            pool.join()
            return
        for process in workers:
            if process.exitcode is None:
                process.kill()
        for process in workers:
            process.join(timeout=1.0)

    def _worker_processes(self) -> list:
        return list(self._pool._pool) if self._pool is not None else []

    def _pool_damaged(self, pids: set) -> bool:
        """Has any worker died (or been replaced) since ``pids`` was taken?

        ``Pool``'s maintenance thread auto-replaces dead workers but the
        replacement never receives the lost in-flight task, so a pid-set
        change is as fatal to the current map as a visible corpse.
        """
        processes = self._worker_processes()
        if {p.pid for p in processes} != pids:
            return True
        return any(p.exitcode is not None for p in processes)

    # -- shared-memory publication --------------------------------------
    def _publish_arrays(self, arrays: Sequence[np.ndarray]):
        """Copy arrays into fresh shared segments; returns (descs, segments)."""
        from multiprocessing import shared_memory

        descs: List[Tuple[str, int]] = []
        segments = []
        for array in arrays:
            array = np.ascontiguousarray(array, dtype=np.int64)
            if len(array) == 0:
                descs.append(("", 0))
                continue
            segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
            view = np.ndarray(len(array), dtype=np.int64, buffer=segment.buf)
            view[:] = array
            del view
            segments.append(segment)
            descs.append((segment.name, len(array)))
        return descs, segments

    def _publish_view(self, view: CsrView, transient: list) -> List[Tuple[str, int]]:
        """Publish a CSR view's arrays into shared memory.

        An iteration snapshot is published once and cached by identity
        until the iteration ends; any other view's segments are appended
        to ``transient`` for the caller to release once its tasks ran.
        """
        snapshot = self._is_snapshot(view)
        if snapshot:
            cached = self._published.get(id(view))
            if cached is not None:
                return cached[0]
        descs, segments = self._publish_arrays(
            [view.vertices, view.indptr, view.keys]
        )
        if snapshot:
            self._published[id(view)] = (descs, segments)
        else:
            transient.extend(segments)
        return descs

    def _release_published(self) -> None:
        for _, segments in self._published.values():
            _unlink_segments(segments)
        self._published = {}

    # -- joining ---------------------------------------------------------
    def _inline(self, left_src, left_keys, rights):
        """Serial path for tiny joins and post-failure degradation."""
        results = []
        started = time.perf_counter()
        for right in rights:
            results.append(
                join_edges(left_src, left_keys, right, self.grammar, self.head_mask)
            )
            self.telemetry.record_chunks([len(left_src)])
        elapsed = time.perf_counter() - started
        self.telemetry.pool_seconds += elapsed
        self.telemetry.serial_estimate_seconds += elapsed
        return self._concat(results)

    def _dispatch(self, tasks, chunk_sizes):
        self.telemetry.record_chunks(chunk_sizes)
        started = time.perf_counter()
        outs = self._map_with_recovery(tasks)
        self.telemetry.pool_seconds += time.perf_counter() - started
        self.telemetry.serial_estimate_seconds += sum(sec for _, _, sec in outs)
        return self._concat([(s, k) for s, k, _ in outs])

    def _map_with_recovery(self, tasks):
        """``pool.map`` with dead-worker detection and bounded respawn.

        A SIGKILLed worker silently drops its in-flight task; the pool's
        maintenance thread replaces the process but the map would then
        wait forever.  We poll the worker set while waiting and, on any
        death, rebuild the pool and retry the whole map — tasks are pure
        reads of shared snapshots, so re-running them is free of side
        effects.  After ``max_respawns`` rebuilds the failure propagates
        and the caller degrades to inline joins.
        """
        delay = self.respawn_base_delay
        respawns = 0
        while True:
            pool = self._ensure_pool()
            pids = {p.pid for p in self._worker_processes()}
            if self.injector is not None:
                self.injector.on_dispatch(sorted(pids))
            result = pool.map_async(_worker_join, tasks)
            damaged = False
            while not result.ready():
                result.wait(0.02)
                if not result.ready() and self._pool_damaged(pids):
                    damaged = True
                    break
            if not damaged:
                return result.get()
            respawns += 1
            self.worker_respawns += 1
            self.telemetry.worker_respawns += 1
            self._teardown_pool()
            if respawns > self.max_respawns:
                raise RuntimeError(
                    f"join pool lost workers {respawns} times; giving up"
                )
            logger.warning(
                "join pool worker died mid-superstep; respawning pool "
                "(attempt %d/%d, backoff %.2fs)",
                respawns,
                self.max_respawns,
                delay,
            )
            time.sleep(delay)
            delay = min(delay * 2, 1.0)

    def join_views(self, left, rights):
        rights = [r for r in rights if r.num_edges]
        if left.num_edges == 0 or not rights:
            return packed.EMPTY, packed.EMPTY
        if self._degraded or left.num_edges < max(
            MIN_PARALLEL_EDGES, 2 * self.num_workers
        ):
            left_src, left_keys = expand_view(left)
            return self._inline(left_src, left_keys, rights)
        transient: list = []
        try:
            left_descs = self._publish_view(left, transient)
            right_descs = [self._publish_view(r, transient) for r in rights]
            chunks = plan_row_chunks(left.indptr, self.num_workers)
            # one task per (right × chunk) keeps each worker's gather
            # local to one right view
            tasks = [
                ("csr", left_descs, [rd], lo, hi)
                for rd in right_descs
                for lo, hi in chunks
            ]
            sizes = [
                int(left.indptr[hi] - left.indptr[lo]) for lo, hi in chunks
            ] * len(right_descs)
            return self._dispatch(tasks, sizes)
        except Exception:
            self._degrade()
            left_src, left_keys = expand_view(left)
            return self._inline(left_src, left_keys, rights)
        finally:
            _unlink_segments(transient)

    def join_edge_list(self, left_src, left_keys, left_view, rights):
        """Prefer the CSR form: snapshots publish once and chunk by rows."""
        return self.join_views(left_view, rights)

    def join_arrays(self, left_src, left_keys, rights):
        rights = [r for r in rights if r.num_edges]
        if len(left_src) == 0 or not rights:
            return packed.EMPTY, packed.EMPTY
        if self._degraded or len(left_src) < max(
            MIN_PARALLEL_EDGES, 2 * self.num_workers
        ):
            return self._inline(left_src, left_keys, rights)
        transient: list = []
        try:
            left_descs, transient = self._publish_arrays([left_src, left_keys])
            right_descs = [self._publish_view(r, transient) for r in rights]
            spans = plan_span_chunks(len(left_src), self.num_workers)
            tasks = [
                ("arrays", left_descs, [rd], lo, hi)
                for rd in right_descs
                for lo, hi in spans
            ]
            sizes = [hi - lo for lo, hi in spans] * len(right_descs)
            return self._dispatch(tasks, sizes)
        except Exception:
            self._degrade()
            return self._inline(left_src, left_keys, rights)
        finally:
            _unlink_segments(transient)

    def _degrade(self) -> None:
        """Permanently fall back to inline joins after a pool/shm failure.

        Loudly: a one-time warning is logged and the degradation is
        stamped into the telemetry (and from there into ``EngineStats``
        and the CLI summary) so a run that quietly lost its parallelism
        is visible in every report.
        """
        self._degraded = True
        if not self._warned_degraded:
            self._warned_degraded = True
            logger.warning(
                "process join backend degraded to inline joins after a "
                "pool/shared-memory failure; the run continues serially"
            )
        self.telemetry.backend = self.display_name
        self.telemetry.backend_degraded = True
        try:
            self.close()
        except Exception:
            pass


def make_backend(
    name: Optional[str],
    grammar: FrozenGrammar,
    num_workers: int = 1,
    head_mask: Optional[np.ndarray] = None,
) -> JoinBackend:
    """Build the requested backend, degrading gracefully.

    ``None`` auto-selects from what the host provides: ``matmul`` (the
    sparse-boolean-matrix kernel, DESIGN.md §11) whenever scipy imports,
    at any ``num_workers`` (each of its joins still takes the edge-pair
    kernel when its id space is too wide for its operands' edges);
    without scipy, quietly, ``thread`` when ``num_workers > 1`` else
    ``serial``.  ``process`` silently
    substitutes a thread pool when shared memory is unavailable — the
    result is identical, only slower — and flags the substitution in the
    telemetry's backend label.  An explicit ``matmul`` falls back to
    ``serial`` with a loud warning when scipy is not installed — the
    closure is identical, only the edge-pair kernel computes it.
    """
    from repro.engine.matmul import MatmulJoinBackend, scipy_available

    if name is None:
        if scipy_available():
            name = "matmul"
        else:
            name = "thread" if num_workers > 1 else "serial"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown parallel backend {name!r}; choose from {BACKENDS}"
        )
    if name == "matmul":
        if not scipy_available():
            logger.warning(
                "matmul join backend requested but scipy is not installed "
                "(pip install 'repro[matmul]'); falling back to the serial "
                "edge-pair join"
            )
            return SerialJoinBackend(grammar, 1, head_mask, requested="matmul")
        return MatmulJoinBackend(grammar, num_workers, head_mask)
    if name == "distributed":
        # The distributed plane lives above this seam (repro.distributed
        # drives worker processes over pair leases); whatever compute the
        # coordinator-side session still does inline is serial.
        return SerialJoinBackend(grammar, 1, head_mask, requested="distributed")
    if name == "serial":
        return SerialJoinBackend(grammar, 1, head_mask)
    if name == "thread":
        return ThreadJoinBackend(grammar, num_workers, head_mask)
    if not shared_memory_available():
        return ThreadJoinBackend(grammar, num_workers, head_mask, requested="process")
    return ProcessJoinBackend(grammar, num_workers, head_mask)
