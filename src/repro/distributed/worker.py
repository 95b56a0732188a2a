"""The lease worker: stateless compute over shared partition files.

A worker owns nothing durable.  It connects to the coordinator, learns
the grammar and join backend from the ``hello`` handshake, then loops:
pull a lease, read the two partition files the lease names out of the
shared workdir (verifying the header fingerprints), run the local
superstep through the pluggable :class:`JoinBackend` seam under its own
``--memory-budget``, and ship the new-edge delta back as packed
``(src, key)`` arrays in frame-sized chunks sealed by a ``complete``
message.  Everything stateful — scheduling, the DDM, checkpoints,
idempotent delta application — stays on the coordinator; a worker can be
SIGKILLed at any instant and the only cost is a reissued lease.

Partition files are written once and never mutated, so the worker keeps
a small fingerprint-verified read cache (:class:`_WorkerCache`) managed
by the same :class:`~repro.partition.pset.ResidencyManager` LRU policy
the engine uses, under the worker's own byte budget.  A fingerprint
mismatch means the worker cannot see the bytes the lease refers to; it
``release``\\ s the lease back to the queue instead of computing on the
wrong content.

Deterministic failure testing composes with :class:`~repro.util.faults.
FaultPlan`: when a plan schedules ``kill_worker_at_dispatch``, the
worker counts its own lease dispatches and at the scheduled one either
abruptly drops the connection and raises :class:`WorkerKilled`
(in-process thread mode) or SIGKILLs its own process via
``FaultInjector.on_dispatch`` (subprocess mode) — both look like a dead
worker to the coordinator, which reissues the lease.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro.distributed.messages import (
    Lease,
    LeaseError,
    delta_chunks,
    grammar_from_payload,
    partition_fingerprint,
)
from repro.engine.parallel import make_backend
from repro.engine.superstep import run_superstep
from repro.partition.pset import ResidencyManager, _Slot
from repro.partition.storage import PartitionStore
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.util.faults import FaultInjector, FaultPlan
from repro.util.retry import RetryPolicy
from repro.util.timing import Stopwatch


class WorkerKilled(BaseException):
    """Simulated SIGKILL for in-process (thread-mode) workers.

    A ``BaseException`` so it cannot be absorbed by ordinary error
    handling on the way out — the worker must die exactly as abruptly as
    a real ``SIGKILL`` would, mid-lease, connection dropped.
    """


class _WorkerCache:
    """Fingerprint-verified partition read cache under a byte budget.

    Keyed by file path: the store writes partition files once and never
    rewrites them, so path + verified fingerprint identifies content
    forever.  Eviction reuses the engine's clock-ish
    :class:`ResidencyManager` over real :class:`_Slot` records, so the
    worker's residency behaviour matches the coordinator's under the
    same budget arithmetic.
    """

    def __init__(self, store: PartitionStore, budget_bytes: Optional[int]) -> None:
        self.store = store
        self.residency = ResidencyManager(budget_bytes)
        self._slots: Dict[str, _Slot] = {}

    def load(self, workdir: Path, entry) -> "object":
        """The partition for one lease entry, from cache or disk."""
        path = workdir / entry.path
        key = str(path)
        slot = self._slots.get(key)
        if slot is None:
            fingerprint = partition_fingerprint(path)
            if fingerprint != entry.fingerprint:
                raise LeaseError(
                    f"{entry.path}: fingerprint {fingerprint:#x} does not "
                    f"match lease {entry.fingerprint:#x}"
                )
            partition = self.store.read(path)
            slot = _Slot(
                partition=partition,
                path=path,
                edge_count=partition.num_edges,
                nbytes=partition.nbytes,
            )
            self._slots[key] = slot
            self._evict_over_budget(keep=key)
        self.residency.touch(slot, hit=True)
        return slot.partition

    def _evict_over_budget(self, keep: str) -> None:
        if self.residency.budget_bytes is None:
            return
        while True:
            resident = [(k, s) for k, s in self._slots.items() if k != keep]
            used = sum(s.nbytes for s in self._slots.values())
            if used <= self.residency.budget_bytes or not resident:
                return
            index = self.residency.select_victim([s for _, s in resident])
            if index is None:
                return
            del self._slots[resident[index][0]]


class DistributedWorker:
    """One lease worker talking to a :class:`DistributedCoordinator`.

    Parameters mirror the ``repro worker`` CLI: the coordinator address,
    the shared ``workdir``, and the worker's own ``memory_budget``.  The
    join backend and thread count come from the coordinator's ``hello``
    response so a fleet stays homogeneous without per-worker flags.
    ``fault_plan`` arms the deterministic kill hook; ``hard_kill``
    selects real ``SIGKILL`` (subprocess mode) over the simulated
    :class:`WorkerKilled` (thread mode).
    """

    def __init__(
        self,
        host: str,
        port: int,
        workdir,
        worker_id: str = "worker",
        memory_budget: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        hard_kill: bool = False,
    ) -> None:
        self.workdir = Path(workdir)
        self.worker_id = worker_id
        self.memory_budget = memory_budget
        self.client = ServiceClient(
            host, port, retry=retry if retry is not None else RetryPolicy.for_client()
        )
        self.injector = FaultInjector(fault_plan) if fault_plan else None
        self.hard_kill = hard_kill
        self.leases_completed = 0
        self._dispatches = 0
        self._client_lock = threading.Lock()
        self._store = PartitionStore(self.workdir, scrub=False)
        self._cache = _WorkerCache(self._store, memory_budget)
        self._grammar = None
        self._backend = None
        self._mid_limit = 0
        self._num_threads = 1
        self._heartbeat_interval = 10.0

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Pull and compute leases until the coordinator says ``done``.

        Returns the number of leases this worker completed.  Raises
        :class:`WorkerKilled` when a fault plan kills it mid-lease and
        :class:`ServiceError` when the coordinator disappears.
        """
        self._handshake()
        try:
            while True:
                response = self._request(op="lease", worker=self.worker_id)
                status = response.get("status")
                if status == "done":
                    return self.leases_completed
                if status == "wait":
                    time.sleep(float(response.get("retry_after", 0.02)))
                    continue
                if status != "lease":
                    raise ServiceError(f"unexpected lease response: {response}")
                lease = Lease.from_payload(response["lease"])
                self._work_one(lease)
        finally:
            if not self.hard_kill:
                self.client.close()

    def _handshake(self) -> None:
        response = self._request(op="hello", worker=self.worker_id)
        self._grammar = grammar_from_payload(response["grammar"])
        self._num_threads = int(response.get("num_threads", 1))
        self._mid_limit = int(response.get("mid_limit", 0))
        self._heartbeat_interval = float(response.get("heartbeat_interval", 10.0))
        self._backend = make_backend(
            response.get("backend"), self._grammar, self._num_threads
        )
        self._backend.__enter__()

    def _request(self, **payload) -> dict:
        with self._client_lock:
            return self.client.request(payload)

    # ------------------------------------------------------------------
    def _work_one(self, lease: Lease) -> None:
        from repro.engine.session import _combine_views

        self._dispatches += 1
        self._maybe_die()
        try:
            parts = [
                self._cache.load(self.workdir, entry)
                for entry in lease.partitions
            ]
        except (LeaseError, FileNotFoundError):
            # The lease names bytes this worker cannot see (stale file,
            # torn copy, wrong workdir): surrender it early rather than
            # letting it run out the deadline.
            self._request(op="release", lease_id=lease.lease_id)
            return

        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease.lease_id, stop_heartbeat),
            name=f"{self.worker_id}-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            watch = Stopwatch().start()
            result = run_superstep(
                _combine_views(parts),
                self._grammar,
                memory_limit_edges=self._mid_limit,
                num_threads=self._num_threads,
                backend=self._backend,
            )
            compute_seconds = watch.stop()
        finally:
            stop_heartbeat.set()
            heartbeat.join()

        chunks = delta_chunks(result.added_src, result.added_keys)
        for src_b64, keys_b64 in chunks:
            self._request(
                op="delta",
                lease_id=lease.lease_id,
                epoch=lease.epoch,
                src=src_b64,
                keys=keys_b64,
            )
        self._request(
            op="complete",
            lease_id=lease.lease_id,
            epoch=lease.epoch,
            chunks=len(chunks),
            iterations=result.iterations,
            completed=result.completed,
            compute_seconds=compute_seconds,
        )
        self.leases_completed += 1

    def _heartbeat_loop(self, lease_id: str, stop: threading.Event) -> None:
        while not stop.wait(self._heartbeat_interval):
            try:
                self._request(op="heartbeat", lease_id=lease_id)
            except (ServiceError, ServiceUnavailable, OSError):
                return  # coordinator gone; the compute will find out too

    def _maybe_die(self) -> None:
        """The deterministic kill hook: die at the scheduled dispatch."""
        plan = self.injector.plan if self.injector else None
        if plan is None or plan.kill_worker_at_dispatch is None:
            return
        if self.hard_kill:
            # Subprocess mode: FaultInjector counts dispatches and sends
            # a real SIGKILL to this process at the scheduled one.
            self.injector.on_dispatch([os.getpid()])
            return
        self.injector.dispatches += 1
        if self._dispatches == plan.kill_worker_at_dispatch:
            self.injector.killed_workers += 1
            # Drop the connection without goodbye — the coordinator sees
            # EOF mid-lease, exactly like a SIGKILLed subprocess.
            self.client.close()
            raise WorkerKilled(
                f"{self.worker_id} killed at dispatch {self._dispatches}"
            )
