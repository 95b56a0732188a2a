"""The partition set: VIT + DDM + partition slots (resident or on disk).

:class:`PartitionSet` is the engine's view of the whole sharded graph.
Each partition occupies a *slot* that holds either the resident
:class:`Partition` object or the path of its file.  Residency is owned
by a :class:`ResidencyManager`: every acquire charges the partition's
actual byte size against an optional memory budget, and when the budget
is exceeded the least-recently-used unpinned partition is evicted
(writing it back first if dirty).  Callers no longer need to pair every
``acquire`` with a manual ``evict`` — they pin what must stay and let
the manager keep the total under budget (§4.1's "two partitions in
memory" generalized to "as many as the budget allows").

With an I/O pipeline attached (:meth:`PartitionSet.attach_io`) the set
additionally supports *speculative prefetch* (:meth:`prefetch` starts a
background load; :meth:`acquire` joins it instead of re-reading) and
*asynchronous write-back* (:meth:`begin_flush` snapshots dirty CSR
arrays and hands serialization to the I/O thread).  All slot and
residency bookkeeping is then guarded by one reentrant lock; the engine
thread never blocks on an I/O future while holding it, because the I/O
thread's completion handlers acquire the same lock.

Splits (:meth:`split`) rewrite the VIT and grow the DDM in place.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.partition.ddm import DestinationDistributionMap
from repro.partition.interval import VertexIntervalTable
from repro.partition.partition import Partition
from repro.partition.storage import PartitionStore


@dataclass
class _Slot:
    """Where one partition currently lives."""

    partition: Optional[Partition]  # resident copy, if any
    path: Optional[Path]  # on-disk copy, if any
    edge_count: int  # tracked so totals never require a load
    dirty: bool = False  # resident copy differs from the disk copy
    nbytes: int = 0  # size of the (last seen) resident CSR arrays
    last_used: int = 0  # LRU clock stamp of the latest acquire/touch
    pinned: bool = False  # never auto-evicted while pinned
    # -- pipeline state (all guarded by the owning set's lock) ----------
    loading: Optional[Future] = None  # in-flight background read
    load_token: Optional[object] = field(default=None, repr=False)
    flushing: Optional[Future] = None  # in-flight background write
    prefetched: bool = False  # resident copy came from an unconsumed prefetch


class ResidencyManager:
    """Byte-accounted LRU residency policy over a slot list.

    Promotes :class:`repro.util.memory.MemoryBudget`-style accounting
    from the baselines into the engine: each resident partition is
    charged its real array bytes; ``budget_bytes=None`` means unlimited
    (the manager still counts).  Victims are chosen least-recently-used
    among resident, unpinned slots, so the loaded superstep pair can be
    pinned while everything else cycles through memory.

    Not internally synchronized: callers serialize access (the
    :class:`PartitionSet` lock covers every touch/observe).
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.budget_bytes = budget_bytes
        self._clock = 0
        self.loads = 0
        self.evictions = 0
        self.cache_hits = 0
        self.peak_resident_bytes = 0
        self.max_partition_bytes = 0

    # -- accounting ------------------------------------------------------
    def touch(self, slot: _Slot, hit: bool) -> None:
        """Stamp an acquire: ``hit`` when the slot was already resident."""
        self._clock += 1
        slot.last_used = self._clock
        if hit:
            self.cache_hits += 1
        else:
            self.loads += 1

    def recharge(self, slot: _Slot) -> None:
        """Refresh a resident slot's byte size (after load or mutation)."""
        if slot.partition is not None:
            slot.nbytes = slot.partition.nbytes
            self.max_partition_bytes = max(self.max_partition_bytes, slot.nbytes)

    def observe(self, slots: List[_Slot]) -> int:
        """Record the current resident total; returns it."""
        total = sum(s.nbytes for s in slots if s.partition is not None)
        self.peak_resident_bytes = max(self.peak_resident_bytes, total)
        return total

    # -- policy ----------------------------------------------------------
    def select_victim(self, slots: List[_Slot]) -> Optional[int]:
        """Index of the LRU resident unpinned slot, or None."""
        victim = None
        victim_stamp = None
        for i, slot in enumerate(slots):
            if slot.partition is None or slot.pinned:
                continue
            if victim_stamp is None or slot.last_used < victim_stamp:
                victim, victim_stamp = i, slot.last_used
        return victim

    def over_budget(self, resident_bytes: int, headroom: int = 0) -> bool:
        if self.budget_bytes is None:
            return False
        return resident_bytes + headroom > self.budget_bytes

    def stats(self) -> Dict[str, object]:
        return {
            "memory_budget": self.budget_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "max_partition_bytes": self.max_partition_bytes,
            "partition_loads": self.loads,
            "evictions": self.evictions,
            "cache_hits": self.cache_hits,
        }


class PartitionSet:
    """All partitions of one graph plus their metadata."""

    def __init__(
        self,
        vit: VertexIntervalTable,
        ddm: DestinationDistributionMap,
        partitions: List[Partition],
        store: PartitionStore,
        label_names: Tuple[str, ...] = (),
        out_degrees: Optional[np.ndarray] = None,
        in_degrees: Optional[np.ndarray] = None,
        memory_budget: Optional[int] = None,
    ) -> None:
        if vit.num_partitions != len(partitions):
            raise ValueError("VIT and partition list disagree")
        self.vit = vit
        self.ddm = ddm
        self.store = store
        self.label_names = tuple(label_names)
        # The paper's per-partition degree files, kept as two global arrays
        # (used for array pre-sizing in C++; here they feed stats/tests).
        self.out_degrees = out_degrees
        self.in_degrees = in_degrees
        self.residency = ResidencyManager(memory_budget)
        # With checkpointing on, superseded partition files must outlive
        # the next manifest commit (the last durable manifest still
        # references them); the engine flips this and purges after commit.
        self.defer_deletes = False
        self._lock = threading.RLock()
        self._io = None  # attached IoPipeline, if any
        self._inflight_load_bytes = 0
        self._interval_lows: Optional[np.ndarray] = None
        self._slots: List[_Slot] = [
            _Slot(
                partition=p,
                path=None,
                edge_count=p.num_edges,
                dirty=True,
                nbytes=p.nbytes,
            )
            for p in partitions
        ]
        self.residency.observe(self._slots)
        for slot in self._slots:
            self.residency.recharge(slot)

    @classmethod
    def from_disk(
        cls,
        vit: VertexIntervalTable,
        ddm: DestinationDistributionMap,
        entries: List[Tuple[Path, int, int]],
        store: PartitionStore,
        label_names: Tuple[str, ...] = (),
        out_degrees: Optional[np.ndarray] = None,
        in_degrees: Optional[np.ndarray] = None,
        memory_budget: Optional[int] = None,
    ) -> "PartitionSet":
        """Rebuild a set whose partitions all live on disk (checkpoint resume).

        ``entries`` is one ``(path, edge_count, nbytes)`` triple per
        partition, in VIT order.  Every slot starts evicted and clean;
        partitions load lazily on first :meth:`acquire`.
        """
        if vit.num_partitions != len(entries):
            raise ValueError("VIT and entry list disagree")
        self = cls.__new__(cls)
        self.vit = vit
        self.ddm = ddm
        self.store = store
        self.label_names = tuple(label_names)
        self.out_degrees = out_degrees
        self.in_degrees = in_degrees
        self.residency = ResidencyManager(memory_budget)
        self.defer_deletes = False
        self._lock = threading.RLock()
        self._io = None
        self._inflight_load_bytes = 0
        self._interval_lows = None
        self._slots = [
            _Slot(
                partition=None,
                path=Path(path),
                edge_count=int(edge_count),
                dirty=False,
                nbytes=int(nbytes),
            )
            for path, edge_count, nbytes in entries
        ]
        return self

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self._slots)

    @property
    def num_vertices(self) -> int:
        return self.vit.num_vertices

    @property
    def memory_budget(self) -> Optional[int]:
        return self.residency.budget_bytes

    def total_edges(self) -> int:
        with self._lock:
            return sum(slot.edge_count for slot in self._slots)

    def edge_count(self, pid: int) -> int:
        return self._slots[pid].edge_count

    def is_resident(self, pid: int) -> bool:
        return self._slots[pid].partition is not None

    def slot_state(self, pid: int) -> Dict[str, object]:
        """Checkpoint-facing view of one slot (path, edges, bytes, dirty)."""
        with self._lock:
            slot = self._slots[pid]
            return {
                "path": slot.path,
                "edges": slot.edge_count,
                "nbytes": slot.nbytes,
                "dirty": slot.dirty,
            }

    def resident_pids(self) -> List[int]:
        with self._lock:
            return [
                i for i, s in enumerate(self._slots) if s.partition is not None
            ]

    def scheduling_resident_pids(self) -> List[int]:
        """Resident pids as the *sequential* engine would see them.

        Excludes unconsumed speculative loads: the scheduler's residency
        tie-break must not be influenced by its own prediction, or the
        pipelined run schedules differently from the sequential one and
        the two stop being superstep-for-superstep comparable (resume
        tests rely on that).  A consumed prefetch (``acquire`` hit it)
        clears the flag and counts as ordinarily resident.
        """
        with self._lock:
            return [
                i
                for i, s in enumerate(self._slots)
                if s.partition is not None and not s.prefetched
            ]

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(
                s.nbytes for s in self._slots if s.partition is not None
            )

    def total_bytes(self) -> int:
        """Byte size of every partition, resident or not.

        Evicted slots report the size remembered from their last
        residency, so this is exact without touching disk.
        """
        return sum(self.partition_sizes())

    def partition_sizes(self) -> List[int]:
        """Per-partition byte sizes in pid order, resident or not.

        What the scheduler sizes a superstep's partition set against;
        evicted slots report their last resident size.
        """
        with self._lock:
            return [s.nbytes for s in self._slots]

    def interval_lows(self) -> np.ndarray:
        """Per-partition interval lower bounds, as one cached array.

        ``np.searchsorted`` against this maps vertex ids to partition
        ids in bulk — the engine's per-superstep new-edge bucketing.
        Invalidated by :meth:`split`.
        """
        with self._lock:
            if self._interval_lows is None or len(self._interval_lows) != len(
                self._slots
            ):
                self._interval_lows = np.fromiter(
                    (iv.lo for iv in self.vit.intervals()),
                    dtype=np.int64,
                    count=self.vit.num_partitions,
                )
            return self._interval_lows

    # ------------------------------------------------------------------
    # I/O pipeline attachment
    # ------------------------------------------------------------------
    def attach_io(self, pipeline) -> None:
        """Route prefetch and async write-back through ``pipeline``."""
        with self._lock:
            self._io = pipeline

    def detach_io(self) -> None:
        with self._lock:
            self._io = None

    def _count_io(self, counter: str) -> None:
        if self._io is not None:
            self._io.count(counter)

    # ------------------------------------------------------------------
    # residency management
    # ------------------------------------------------------------------
    def acquire(self, pid: int) -> Partition:
        """Return the partition, loading it from disk if needed.

        Budgeted sets make room *before* reading: the incoming size is
        known from the slot's last residency, so the load itself never
        has to overshoot by more than the incoming partition.

        With a pipeline attached, an in-flight prefetch of ``pid`` is
        *joined* (the engine blocks on the background read instead of
        issuing its own), and an in-flight flush of ``pid`` is drained
        before re-reading the file it is still writing.
        """
        while True:
            with self._lock:
                slot = self._slots[pid]
                if slot.partition is not None:
                    if slot.prefetched:
                        slot.prefetched = False
                        self._count_io("prefetch_hits")
                    self.residency.touch(slot, hit=True)
                    return slot.partition
                load, flush = slot.loading, slot.flushing
                if load is None and flush is None:
                    if slot.path is None:
                        raise RuntimeError(
                            f"partition {pid} has neither memory nor disk copy"
                        )
                    self._make_room(incoming=slot.nbytes, keep=(pid,))
                    slot.partition = self.store.read(slot.path)
                    slot.dirty = False
                    self.residency.touch(slot, hit=False)
                    self.residency.recharge(slot)
                    self.residency.observe(self._slots)
                    return slot.partition
            # Never wait on a future while holding the lock: the I/O
            # thread's completion handlers take the same lock.
            if load is not None:
                self._io.wait_load(load)
            else:
                self._io.wait_flush(flush)
            # Loop: the prefetch installed the partition (hit path), or
            # the flush finished and the file is now safe to read.

    def prefetch(self, pid: int) -> bool:
        """Start loading ``pid`` on the I/O thread; best-effort.

        Declined (returns False) when the partition is already resident
        or loading, has no disk copy, would not fit in the memory budget
        without evicting anything, or its file is still being flushed.
        Speculative bytes are charged against the budget the moment the
        load is issued (``_inflight_load_bytes``), so a prefetch can
        never push residency past the budget — mispredictions waste one
        read, never memory.
        """
        with self._lock:
            if self._io is None or not self.store.disk_backed:
                return False
            slot = self._slots[pid]
            if (
                slot.partition is not None
                or slot.loading is not None
                or slot.flushing is not None
                or slot.path is None
            ):
                return False
            if self.residency.budget_bytes is not None:
                projected = (
                    self.resident_bytes()
                    + self._inflight_load_bytes
                    + slot.nbytes
                )
                if self.residency.over_budget(projected):
                    return False  # don't evict real data for a guess
            token = object()
            reserved = slot.nbytes
            path = slot.path
            slot.load_token = token
            self._inflight_load_bytes += reserved

            def job():
                try:
                    partition = self.store.read(path)
                except BaseException:
                    with self._lock:
                        self._inflight_load_bytes -= reserved
                        if slot.load_token is token:
                            slot.load_token = None
                            slot.loading = None
                    raise
                with self._lock:
                    self._inflight_load_bytes -= reserved
                    # Install only if the prefetch wasn't cancelled (and
                    # the slot wasn't split away) in the meantime.
                    if slot.load_token is token:
                        slot.load_token = None
                        slot.loading = None
                        if slot.partition is None:
                            slot.partition = partition
                            slot.dirty = False
                            slot.prefetched = True
                            self.residency.loads += 1
                            self.residency.recharge(slot)
                            self.residency.observe(self._slots)
                return None

            slot.loading = self._io.submit(job)
            self._count_io("prefetch_issued")
            return True

    def cancel_prefetch(self, pid: int) -> None:
        """Abandon an in-flight or unconsumed prefetch of ``pid``.

        A queued-but-unstarted load is cancelled outright; a running one
        is disowned (its install check fails and the read is dropped);
        an installed-but-unconsumed one is evicted (it is clean, so the
        eviction costs no write).  All three count as ``prefetch_wasted``.
        """
        with self._lock:
            slot = self._slots[pid]
            if slot.loading is not None:
                future = slot.loading
                slot.loading = None
                if slot.load_token is not None:
                    slot.load_token = None
                    if future.cancel():
                        # Never ran: hand the reservation back here.
                        self._inflight_load_bytes -= slot.nbytes
                    self._count_io("prefetch_wasted")
            elif slot.prefetched and slot.partition is not None:
                self.evict(pid)

    def reconcile_prefetch(self, pair: Tuple[int, ...]) -> None:
        """Settle speculative loads against the actually chosen ``pair``.

        Prefetches of partitions in ``pair`` are kept (acquire will join
        or hit them); every other speculative load is cancelled/evicted
        and counted wasted.
        """
        with self._lock:
            for pid, slot in enumerate(self._slots):
                if pid in pair:
                    continue
                if slot.loading is not None or slot.prefetched:
                    self.cancel_prefetch(pid)

    def note_mutated(self, pid: int) -> None:
        """Record that the resident copy of ``pid`` changed."""
        with self._lock:
            slot = self._slots[pid]
            if slot.partition is None:
                raise RuntimeError(f"partition {pid} not resident")
            slot.edge_count = slot.partition.num_edges
            slot.dirty = True
            self.residency.recharge(slot)
            self.residency.observe(self._slots)

    def pin(self, pids: Tuple[int, ...]) -> None:
        """Protect ``pids`` from automatic eviction (the loaded pair)."""
        with self._lock:
            for pid in pids:
                self._slots[pid].pinned = True

    def unpin(self, pids: Tuple[int, ...]) -> None:
        with self._lock:
            for pid in pids:
                self._slots[pid].pinned = False

    @contextmanager
    def pinned(self, *pids: int) -> Iterator[None]:
        self.pin(tuple(pids))
        try:
            yield
        finally:
            # Splits may have replaced slot objects; unpin defensively.
            with self._lock:
                for slot in self._slots:
                    slot.pinned = False

    def pin_hot(self, headroom: Optional[int] = None) -> List[int]:
        """Pin the hottest partitions resident, leaving ``headroom`` bytes.

        Serving-tier warm-up (DESIGN.md §14): the closure daemon calls
        this once per finished closure so checker queries hit memory
        instead of re-reading partition files per request.  Partitions
        are ranked by edge count (the best available proxy for how much
        of each query's scan they absorb) and loaded + pinned greedily
        while ``pinned_bytes + headroom`` stays within the memory
        budget.  ``headroom`` defaults to the largest known partition,
        so a query touching an *unpinned* partition can always load it
        by evicting only unpinned residents — preserving the engine's
        "peak ≤ budget + one partition" residency invariant.

        No-op (returns ``[]``) without a memory budget: unbudgeted sets
        keep everything resident anyway.  Returns the pinned pids.
        """
        if self.memory_budget is None:
            return []
        with self._lock:
            sizes = [slot.nbytes for slot in self._slots]
            order = sorted(
                range(len(self._slots)),
                key=lambda pid: self._slots[pid].edge_count,
                reverse=True,
            )
        if headroom is None:
            headroom = max(sizes, default=0)
        pinned: List[int] = []
        used = 0
        for pid in order:
            size = sizes[pid]
            if size <= 0:
                continue
            if used + size + headroom > self.memory_budget:
                continue
            self.acquire(pid)
            self.pin((pid,))
            used += size
            pinned.append(pid)
        return pinned

    def unpin_all(self) -> None:
        """Release every pin (daemon shutdown / closure replacement)."""
        with self._lock:
            for slot in self._slots:
                slot.pinned = False

    def enforce_budget(self, incoming: int = 0) -> None:
        """Evict LRU unpinned partitions until ``incoming`` more bytes fit.

        ``incoming`` 0 settles the budget after growth; the engine passes
        each loaded partition's growth *before* scattering it in, so the
        superstep's set grows into room that other residents (or members
        already scattered and unpinned) made, not past the budget.  No-op
        without a budget.
        """
        with self._lock:
            self._make_room(incoming=incoming, keep=())

    def _discard(self, path: Optional[Path]) -> None:
        """Drop a superseded partition file — deferred when checkpointing."""
        if path is None:
            return
        if self.defer_deletes:
            self.store.retire(path)
        else:
            self.store.delete(path)

    def flush_dirty(self) -> int:
        """Write every dirty resident partition to disk; returns the count.

        Unlike :meth:`evict`, the resident copies stay in memory — this
        is the durability half of a checkpoint, not a residency decision.
        After it, every slot has an up-to-date disk copy and the run
        manifest may safely commit.  Superseded files are discarded via
        :meth:`_discard` (deferred under checkpointing).
        """
        if not self.store.disk_backed:
            return 0
        with self._lock:
            flushed = 0
            for slot in self._slots:
                if slot.path is not None and not slot.dirty:
                    continue
                if slot.partition is None:
                    if slot.path is None:
                        raise RuntimeError(
                            "slot has neither memory nor disk copy"
                        )
                    continue
                old_path = slot.path
                slot.path = self.store.write(slot.partition)
                slot.dirty = False
                self._discard(old_path)
                flushed += 1
            return flushed

    def begin_flush(self) -> List[Future]:
        """Asynchronous :meth:`flush_dirty`: snapshot now, write later.

        For every dirty resident partition the CSR arrays are captured
        by reference (the engine's scatter *rebinds* a partition's
        arrays, never mutates them in place, so the captured triple is a
        consistent snapshot even if the slot is re-dirtied while the
        write is still queued), a destination path is pre-allocated, and
        the serialization + fsync is submitted to the I/O thread.  The
        slot's metadata is updated immediately — ``path`` points at the
        in-flight file and ``dirty`` clears — which is exactly what
        checkpoint-manifest building needs; the manifest must simply not
        *commit* until the returned futures are drained.

        Requires an attached pipeline; falls back to the synchronous
        path otherwise (returning no futures).
        """
        if not self.store.disk_backed:
            return []
        with self._lock:
            if self._io is None:
                self.flush_dirty()
                return []
            futures: List[Future] = []
            for slot in self._slots:
                if slot.path is not None and not slot.dirty:
                    continue
                if slot.partition is None:
                    if slot.path is None:
                        raise RuntimeError(
                            "slot has neither memory nor disk copy"
                        )
                    continue
                snapshot = Partition.from_csr(
                    slot.partition.interval, *slot.partition.csr()
                )
                new_path = self.store.allocate_path()
                old_path = slot.path
                slot.path = new_path
                slot.dirty = False
                self._discard(old_path)
                future = self._io.submit(self.store.write_to, snapshot, new_path)
                slot.flushing = future

                def clear(done, slot=slot):
                    with self._lock:
                        if slot.flushing is done:
                            slot.flushing = None

                future.add_done_callback(clear)
                futures.append(future)
            return futures

    def _make_room(self, incoming: int, keep: Tuple[int, ...]) -> None:
        # Callers hold the lock.  Speculative in-flight loads count
        # toward residency so prefetch can never cause an overshoot the
        # budget tests would see.
        if self.residency.budget_bytes is None or not self.store.disk_backed:
            return
        while self.residency.over_budget(
            self.resident_bytes() + self._inflight_load_bytes, incoming
        ):
            victim = self.residency.select_victim(
                [
                    s if i not in keep else _PINNED_SENTINEL
                    for i, s in enumerate(self._slots)
                ]
            )
            if victim is None:
                break  # everything left is pinned; bounded overshoot
            self.evict(victim)

    def evict(self, pid: int) -> None:
        """Drop the resident copy, writing it out first if dirty.

        Writing is *delayed* until eviction so a partition rechosen by the
        scheduler pays no I/O (§4.3).  In-memory stores never evict.
        """
        with self._lock:
            slot = self._slots[pid]
            if slot.partition is None:
                return
            if not self.store.disk_backed:
                return
            if slot.prefetched:
                slot.prefetched = False
                self._count_io("prefetch_wasted")
            if slot.dirty or slot.path is None:
                old_path = slot.path
                slot.path = self.store.write(slot.partition)
                self._discard(old_path)
            # remembered for pre-load sizing
            slot.nbytes = slot.partition.nbytes
            slot.partition = None
            slot.dirty = False
            self.residency.evictions += 1

    def evict_all_except(self, keep: Tuple[int, ...] = ()) -> None:
        for pid in self.resident_pids():
            if pid not in keep:
                self.evict(pid)

    # ------------------------------------------------------------------
    # repartitioning (§4.3)
    # ------------------------------------------------------------------
    def split(self, pid: int) -> Tuple[int, int]:
        """Split resident partition ``pid`` at its median edge mass.

        Updates the VIT, the slot list, and the DDM (exact rows for both
        halves).  Returns the two new partition ids (``pid``, ``pid+1``).
        """
        partition = self.acquire(pid)
        with self._lock:
            mid = partition.median_split_point()
            self.vit.split(pid, mid)
            self._interval_lows = None
            left, right = partition.split(mid)
            old_slot = self._slots[pid]
            # Disown any in-flight speculative load of the old slot; its
            # install check (load_token) fails and the read is dropped.
            old_slot.load_token = None
            old_slot.loading = None
            halves = [
                _Slot(
                    partition=half,
                    path=None,
                    edge_count=half.num_edges,
                    dirty=True,
                    nbytes=half.nbytes,
                    last_used=old_slot.last_used,
                    pinned=old_slot.pinned,
                )
                for half in (left, right)
            ]
            self._slots[pid : pid + 1] = halves
            self._discard(old_slot.path)
            for slot in halves:
                self.residency.recharge(slot)
            self.ddm.split_partition(
                pid,
                left_row=left.destination_counts(self.vit),
                right_row=right.destination_counts(self.vit),
            )
            return pid, pid + 1

    # ------------------------------------------------------------------
    # whole-graph export (for result queries and tests)
    # ------------------------------------------------------------------
    def iter_all_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate every edge, loading partitions one at a time."""
        for pid in range(self.num_partitions):
            was_resident = self.is_resident(pid)
            partition = self.acquire(pid)
            yield from partition.edges()
            if not was_resident and self.memory_budget is None:
                self.evict(pid)

    def to_memgraph(self):
        """Materialize the full (possibly large) graph in memory.

        Column-wise: each partition contributes its flat ``(src, keys)``
        arrays, so no per-edge Python iteration happens.
        """
        from repro.graph import packed
        from repro.graph.graph import MemGraph

        src_parts: List[np.ndarray] = []
        key_parts: List[np.ndarray] = []
        for pid in range(self.num_partitions):
            was_resident = self.is_resident(pid)
            partition = self.acquire(pid)
            if partition.num_edges:
                src_parts.append(
                    np.repeat(partition.vertices, partition.row_lengths())
                )
                key_parts.append(np.asarray(partition.keys))
            if not was_resident and self.memory_budget is None:
                self.evict(pid)
        if src_parts:
            src = np.concatenate(src_parts)
            keys = np.concatenate(key_parts)
        else:
            src, keys = packed.EMPTY, packed.EMPTY
        return MemGraph.from_arrays(
            src,
            packed.targets_of(keys),
            packed.labels_of(keys),
            num_vertices=self.num_vertices,
            label_names=self.label_names,
        )

    def __repr__(self) -> str:
        resident = len(self.resident_pids())
        return (
            f"PartitionSet({self.num_partitions} partitions, "
            f"{self.total_edges()} edges, {resident} resident)"
        )


#: Stand-in slot used to mask ``keep`` pids from victim selection.
_PINNED_SENTINEL = _Slot(partition=None, path=None, edge_count=0)
